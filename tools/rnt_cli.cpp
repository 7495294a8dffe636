// rnt_cli — command-line front end to the robust-tomography library.
//
// Subcommands:
//   topology  Generate or inspect a topology (optionally save an edge list).
//   select    Run a path-selection algorithm on a workload and print the
//             chosen probe paths.
//   evaluate  Score a selection algorithm's robustness under failures.
//   learn     Run an online learner and report its progress.
//   localize  Score single-link failure localization of a selection.
//   pipeline  Replay a failure trace through the adaptive replanning
//             pipeline (online estimation + drift-gated re-selection).
//   serve     Run the concurrent tomography service on a TCP port.
//   client    Send protocol lines to a running service.
//
// Examples (an indented line continues the command above it):
//   rnt_cli topology --as AS3257 --output as3257.edges
//   rnt_cli select --as AS1755 --paths 400 --algorithm prob-rome
//       --budget-frac 0.1
//   rnt_cli evaluate --as AS3257 --paths 800 --algorithm select-path
//       --budget-frac 0.1 --scenarios 200
//   rnt_cli learn --as AS1755 --paths 100 --epochs 500 --learner lsr
//   rnt_cli localize --as AS1755 --paths 200 --budget-frac 0.15
//   rnt_cli pipeline --nodes 40 --links 80 --paths 120 --policy adaptive
//       --segments 2,10,5 --segment-epochs 40
//   rnt_cli serve --port 7070 --threads 8 --cache 8
//   rnt_cli client --port 7070 --request "select as=AS1755 budget-frac=0.1"
//
// Command implementations live in cli_commands.cpp so the test suite can
// drive them directly.
#include <iostream>

#include "cli_commands.h"

int main(int argc, char** argv) {
  try {
    return rnt::cli::dispatch(argc, argv, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
