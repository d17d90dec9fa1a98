#include "tlrwse/oocache/streamed_operator.hpp"

#include <utility>

namespace tlrwse::oocache {

StreamedOperator make_streamed_operator(const std::string& path,
                                        const StreamConfig& cfg) {
  return make_streamed_operator(path, io::peek_archive_extents(path), cfg);
}

StreamedOperator make_streamed_operator(const std::string& path,
                                        io::ArchiveInfo info,
                                        const StreamConfig& cfg) {
  StreamedOperator out;
  out.info = std::move(info);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = cfg.budget_bytes;
  StreamPlan plan = compile_stream_plan(out.info, plan_cfg);
  auto source = std::make_shared<ArchiveShardSource>(path, out.info);
  out.streamer =
      std::make_shared<ShardStreamer>(std::move(source), std::move(plan), cfg);
  out.op = std::make_unique<mdc::MdcOperator>(out.info.nt, out.info.freq_bins,
                                              out.streamer);
  return out;
}

}  // namespace tlrwse::oocache
