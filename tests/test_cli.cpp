// Tests for the rnt_cli subcommands, driven through the testable command
// layer with captured output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_commands.h"
#include "service/service.h"
#include "util/flags.h"

namespace rnt::cli {
namespace {

/// Builds Flags from a brace list of c-string flags.
Flags make_flags(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return Flags(static_cast<int>(args.size()), args.data());
}

TEST(CliTopology, PrintsStatsForCalibratedAs) {
  auto flags = make_flags({"--as", "AS1755", "--seed", "3"});
  std::ostringstream out;
  EXPECT_EQ(cmd_topology(flags, out), 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("nodes"), std::string::npos);
  EXPECT_NE(s.find("87"), std::string::npos);
  EXPECT_NE(s.find("161"), std::string::npos);
  EXPECT_NE(s.find("connected"), std::string::npos);
  EXPECT_NO_THROW(flags.finish());
}

TEST(CliTopology, SavesAndReloadsEdgeList) {
  const std::string path = "/tmp/rnt_cli_test_topology.edges";
  {
    auto flags =
        make_flags({"--nodes", "20", "--links", "30", "--output",
                    path.c_str()});
    std::ostringstream out;
    EXPECT_EQ(cmd_topology(flags, out), 0);
    EXPECT_NE(out.str().find("wrote"), std::string::npos);
  }
  {
    auto flags = make_flags({"--input", path.c_str()});
    std::ostringstream out;
    EXPECT_EQ(cmd_topology(flags, out), 0);
    EXPECT_NE(out.str().find("20"), std::string::npos);
    EXPECT_NE(out.str().find("30"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CliSelect, RunsEachAlgorithm) {
  for (const char* algorithm :
       {"prob-rome", "monte-rome", "select-path", "mat-rome"}) {
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--algorithm", algorithm,
                             "--budget-frac", "0.2"});
    std::ostringstream out;
    EXPECT_EQ(cmd_select(flags, out), 0) << algorithm;
    EXPECT_NE(out.str().find("selected"), std::string::npos) << algorithm;
    EXPECT_NE(out.str().find("availability"), std::string::npos);
  }
}

TEST(CliSelect, RejectsUnknownAlgorithm) {
  auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths", "20",
                           "--algorithm", "magic"});
  std::ostringstream out;
  EXPECT_THROW(cmd_select(flags, out), std::invalid_argument);
}

/// The "selected N paths, cost C" fragment and the path column of a
/// `cmd_select --verbose` report.
struct CliSelection {
  std::string headline;
  std::string paths;  ///< Comma-separated, in table order.
};

CliSelection parse_cli_select(const std::string& report) {
  CliSelection sel;
  std::istringstream in(report);
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(" selected ");
    if (at != std::string::npos) {
      sel.headline = line.substr(at + 1, line.find(", objective") - at - 1);
    } else if (line.rfind("----", 0) == 0) {
      in_table = true;
    } else if (in_table && !line.empty()) {
      if (!sel.paths.empty()) sel.paths += ',';
      sel.paths += line.substr(0, line.find(' '));
    }
  }
  return sel;
}

TEST(CliSelect, MatchesServiceSelectForEveryAlgorithm) {
  service::Service svc(service::ServiceConfig{.threads = 1,
                                              .cache_capacity = 2});
  const std::string params =
      "nodes=30 links=60 paths=40 seed=5 intensity=5 budget-frac=0.25";
  struct Case {
    const char* algorithm;
    const char* optimizer;
  };
  for (const Case c : {Case{"prob-rome", "rome"},
                       Case{"prob-rome", "lazy-greedy"},
                       Case{"monte-rome", "rome"},
                       Case{"monte-rome", "lazy-greedy"},
                       Case{"kernel-rome", "rome"},
                       Case{"kernel-rome", "lazy-greedy"},
                       Case{"select-path", "rome"},
                       Case{"mat-rome", "rome"}}) {
    SCOPED_TRACE(std::string(c.algorithm) + "+" + c.optimizer);
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--seed", "5", "--budget-frac", "0.25",
                             "--algorithm", c.algorithm, "--optimizer",
                             c.optimizer, "--verbose"});
    std::ostringstream out;
    ASSERT_EQ(cmd_select(flags, out), 0);
    flags.finish();
    const CliSelection cli = parse_cli_select(out.str());

    const service::Response reply = svc.handle_line(
        "select " + params + " algorithm=" + c.algorithm +
        " optimizer=" + c.optimizer);
    ASSERT_TRUE(reply.ok) << reply.error;
    std::ostringstream headline;
    headline << "selected " << reply.at("selected") << " paths, cost "
             << reply.number("cost");
    EXPECT_EQ(cli.headline, headline.str());
    EXPECT_EQ(cli.paths, reply.at("paths"));
    EXPECT_FALSE(cli.paths.empty());
  }
  // Neither surface routes select-path or mat-rome through an optimizer.
  for (const char* algorithm : {"select-path", "mat-rome"}) {
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--algorithm", algorithm, "--optimizer",
                             "lazy-greedy"});
    std::ostringstream out;
    EXPECT_THROW(cmd_select(flags, out), std::invalid_argument) << algorithm;
    EXPECT_FALSE(svc.handle_line("select " + params + " algorithm=" +
                                 algorithm + " optimizer=lazy-greedy")
                     .ok)
        << algorithm;
  }
}

TEST(CliEvaluate, ReportsMetrics) {
  auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths", "40",
                           "--budget-frac", "0.2", "--scenarios", "50",
                           "--identifiability"});
  std::ostringstream out;
  EXPECT_EQ(cmd_evaluate(flags, out), 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("rank under failures (mean)"), std::string::npos);
  EXPECT_NE(s.find("identifiable links (mean)"), std::string::npos);
}

TEST(CliLearn, RunsEachLearner) {
  for (const char* learner : {"lsr", "epsilon-greedy", "thompson"}) {
    auto flags = make_flags({"--nodes", "25", "--links", "50", "--paths",
                             "20", "--epochs", "40", "--learner", learner,
                             "--budget-frac", "0.3"});
    std::ostringstream out;
    EXPECT_EQ(cmd_learn(flags, out), 0) << learner;
    EXPECT_NE(out.str().find("learned selection expected rank"),
              std::string::npos)
        << learner;
  }
}

TEST(CliLearn, RejectsUnknownLearner) {
  auto flags = make_flags({"--nodes", "25", "--links", "50", "--paths", "20",
                           "--learner", "psychic"});
  std::ostringstream out;
  EXPECT_THROW(cmd_learn(flags, out), std::invalid_argument);
}

TEST(CliLocalize, ReportsScore) {
  auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths", "40",
                           "--budget-frac", "0.3", "--scenarios", "60"});
  std::ostringstream out;
  EXPECT_EQ(cmd_localize(flags, out), 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("localized exactly"), std::string::npos);
  EXPECT_NE(s.find("invisible"), std::string::npos);
}

TEST(CliPipeline, ReportsAdaptiveRunAndSavesSeries) {
  const std::string series = "/tmp/rnt_cli_test_pipeline.csv";
  auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths", "60",
                           "--segment-epochs", "10", "--segments", "2,8",
                           "--policy", "adaptive", "--seed", "5",
                           "--series", series.c_str()});
  std::ostringstream out;
  EXPECT_EQ(cmd_pipeline(flags, out), 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("epochs"), std::string::npos);
  EXPECT_NE(s.find("re-plans"), std::string::npos);
  EXPECT_NE(s.find("cumulative surviving rank"), std::string::npos);
  std::ifstream in(series);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("rank"), std::string::npos);
  std::remove(series.c_str());
}

// The acceptance bar: the same seed replays the same trace through the
// same pipeline — byte-identical output, twice.
TEST(CliPipeline, OutputIsDeterministicForASeed) {
  const auto run = [] {
    auto flags =
        make_flags({"--nodes", "30", "--links", "60", "--paths", "60",
                    "--segment-epochs", "10", "--segments", "2,8",
                    "--policy", "adaptive", "--seed", "7"});
    std::ostringstream out;
    EXPECT_EQ(cmd_pipeline(flags, out), 0);
    return out.str();
  };
  EXPECT_EQ(run(), run());
}

TEST(CliPipeline, RejectsBadPolicyAndSegments) {
  {
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--policy", "psychic"});
    std::ostringstream out;
    EXPECT_THROW(cmd_pipeline(flags, out), std::invalid_argument);
  }
  {
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--segments", "2,-1"});
    std::ostringstream out;
    EXPECT_THROW(cmd_pipeline(flags, out), std::invalid_argument);
  }
  {
    auto flags = make_flags({"--nodes", "30", "--links", "60", "--paths",
                             "40", "--segment-epochs", "0"});
    std::ostringstream out;
    EXPECT_THROW(cmd_pipeline(flags, out), std::invalid_argument);
  }
}

TEST(CliDispatch, UsageAndUnknownCommand) {
  {
    std::ostringstream out;
    const char* argv[] = {"rnt_cli"};
    EXPECT_EQ(dispatch(1, const_cast<char**>(argv), out), 1);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
  }
  {
    std::ostringstream out;
    const char* argv[] = {"rnt_cli", "help"};
    EXPECT_EQ(dispatch(2, const_cast<char**>(argv), out), 0);
  }
  // Retired command names fail like any other unknown command.
  for (const char* command : {"frobnicate", "cluster", "cluster-serve"}) {
    std::ostringstream out;
    const char* argv[] = {"rnt_cli", command};
    EXPECT_EQ(dispatch(2, const_cast<char**>(argv), out), 1) << command;
    EXPECT_NE(out.str().find("unknown command"), std::string::npos)
        << command;
  }
}

TEST(CliDispatch, RunsFullCommandLine) {
  std::ostringstream out;
  const char* argv[] = {"rnt_cli", "topology", "--nodes", "15",
                        "--links", "25"};
  EXPECT_EQ(dispatch(6, const_cast<char**>(argv), out), 0);
  EXPECT_NE(out.str().find("15"), std::string::npos);
}

TEST(CliDispatch, UnknownFlagFailsLoudly) {
  std::ostringstream out;
  const char* argv[] = {"rnt_cli", "topology", "--oops", "1"};
  EXPECT_THROW(dispatch(4, const_cast<char**>(argv), out),
               std::invalid_argument);
  // --engine is not a select flag: kernel-rome names the kernel engine.
  const char* engine_argv[] = {"rnt_cli", "select", "--nodes", "16",
                               "--links", "32", "--paths", "24",
                               "--engine", "kernel"};
  EXPECT_THROW(dispatch(10, const_cast<char**>(engine_argv), out),
               std::invalid_argument);
  // serve checks its flags before binding a socket.
  const char* serve_argv[] = {"rnt_cli", "serve", "--reactor"};
  EXPECT_THROW(dispatch(3, const_cast<char**>(serve_argv), out),
               std::invalid_argument);
}

TEST(CliDispatch, NegativeCountsAreRejectedNotWrapped) {
  // A negative count used to wrap to 2^64: evaluate ran until killed and
  // localize-node reported 18446744073709551615 simultaneous failures.
  const std::vector<std::vector<const char*>> cases = {
      {"rnt_cli", "evaluate", "--nodes", "20", "--links", "30", "--paths",
       "30", "--scenarios", "-1"},
      {"rnt_cli", "localize-node", "--nodes", "20", "--links", "30",
       "--paths", "30", "--k", "-1"}};
  for (const auto& argv : cases) {
    const std::string flag = argv[argv.size() - 2];
    std::ostringstream out;
    try {
      dispatch(static_cast<int>(argv.size()),
               const_cast<char**>(argv.data()), out);
      ADD_FAILURE() << argv[1] << " accepted " << flag << " -1";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(out.str().find("18446744073709551615"), std::string::npos);
  }
}

TEST(CliDispatch, ZeroScenariosAreRejected) {
  // --scenarios 0 used to leak "EmpiricalDistribution::quantile: no
  // samples" from evaluate and print all-zero means from the others.
  for (const char* command :
       {"evaluate", "infer", "localize", "localize-node"}) {
    const std::vector<const char*> argv = {
        "rnt_cli", command,   "--nodes", "20", "--links", "30",
        "--paths", "30",      "--scenarios", "0"};
    std::ostringstream out;
    try {
      dispatch(static_cast<int>(argv.size()),
               const_cast<char**>(argv.data()), out);
      ADD_FAILURE() << command << " accepted --scenarios 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--scenarios must be positive"),
                std::string::npos)
          << command << ": " << e.what();
    }
  }
}

TEST(CliInfer, RejectsNonFiniteNoise) {
  // --noise inf printed "residual norm (mean) -nan"; nan ran noise-free.
  for (const char* noise : {"inf", "nan", "-1"}) {
    auto flags = make_flags({"--nodes", "20", "--links", "30", "--paths",
                             "30", "--scenarios", "5", "--noise", noise});
    std::ostringstream out;
    try {
      cmd_infer(flags, out);
      ADD_FAILURE() << "infer accepted --noise " << noise;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "--noise must be finite and non-negative"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(out.str().find("nan"), std::string::npos) << out.str();
  }
}

TEST(CliDispatch, NonFiniteOrNegativeBudgetsAreRejected) {
  // select --budget-frac nan printed "budget nan" and selected a path of
  // cost 400; pipeline --budget-frac nan ran.
  for (const char* command : {"select", "evaluate", "pipeline"}) {
    for (const char* frac : {"nan", "inf", "-0.5"}) {
      const std::vector<const char*> argv = {
          "rnt_cli", command, "--nodes", "20",         "--links", "30",
          "--paths", "30",    "--budget-frac", frac};
      std::ostringstream out;
      try {
        dispatch(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()), out);
        ADD_FAILURE() << command << " accepted --budget-frac " << frac;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "--budget-frac must give a finite, non-negative budget"),
                  std::string::npos)
            << command << ": " << e.what();
      }
      EXPECT_EQ(out.str().find("nan"), std::string::npos) << out.str();
    }
  }
}

}  // namespace
}  // namespace rnt::cli
