// Host-noise probe: two fixed micro-loops timed before and after a run.
//
// The ALU loop depends only on the core; the pointer chase walks a 16 MB
// random cycle (8x the 2 MB per-core L2 of the reference guest), so it
// depends on the memory hierarchy the host shares with its neighbours.
// Readings are informational: they attribute a slow run to the host and
// never scale a metric.  Each probe runs in a forked child so its buffer
// never shows in the run's peak RSS.
#pragma once

namespace perfbench {

struct ProbeReading {
  double alu_ms = 0.0;
  double chase_ms = 0.0;
};

/// Runs both loops in a child process; returns zeros if fork fails.
ProbeReading host_probe();

}  // namespace perfbench
