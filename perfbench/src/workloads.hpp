// Subcommands of the perfbench binary.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Writes the survey archives, candidate inputs and reference answers.
int cmd_prep(Args& args);
/// Runs one workload (untraced end-to-end metrics, or the traced ladder)
/// and prints its result as the last stdout line.
int cmd_run(Args& args, char** argv);
/// Hidden: one ShardWorker process behind a unix socket.
int cmd_worker(Args& args);
/// STREAM triad over arrays sized against the last-level cache.
int cmd_triad(Args& args);

}  // namespace perfbench
