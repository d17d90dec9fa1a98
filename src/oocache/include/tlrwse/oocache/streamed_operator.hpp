// One-call assembly of an out-of-core MDC operator: peek the archive's
// extent table (a single directory read shared with every later slice
// load), compile the stream plan against the byte budget, and wire a
// ShardStreamer into MdcOperator's kernel-stream seam. The resulting
// operator is bitwise identical to io::make_operator over the same
// archive — streaming changes when kernels are resident, never what they
// compute.
#pragma once

#include <memory>
#include <string>

#include "tlrwse/io/archive.hpp"
#include "tlrwse/oocache/shard_streamer.hpp"

namespace tlrwse::oocache {

/// A streamed operator plus the handles callers need to observe it: the
/// streamer (stats, plan, effective budget) and the archive metadata.
struct StreamedOperator {
  std::unique_ptr<mdc::MdcOperator> op;
  std::shared_ptr<ShardStreamer> streamer;
  io::ArchiveInfo info;
};

/// Builds a streamed operator over a TLRA/TLRS archive. Throws
/// StreamError(kBudgetTooSmall) when cfg.budget_bytes cannot hold the
/// plan's window (unless cfg.grow_to_window lifts it), and the usual io
/// errors for an unreadable archive.
[[nodiscard]] StreamedOperator make_streamed_operator(
    const std::string& path, const StreamConfig& cfg);

/// The same over an extents peek of `path` the caller already holds
/// (io::peek_archive_extents), so pricing and streaming share one
/// directory read.
[[nodiscard]] StreamedOperator make_streamed_operator(
    const std::string& path, io::ArchiveInfo info, const StreamConfig& cfg);

}  // namespace tlrwse::oocache
