#include "tlrwse/oocache/streamed_operator.hpp"

#include <utility>

#include "tlrwse/common/error.hpp"

namespace tlrwse::oocache {

StreamedOperator make_streamed_operator(const std::string& path,
                                        const StreamConfig& cfg) {
  StreamedOperator out;
  out.info = io::peek_archive_extents(path);
  StreamPlanConfig plan_cfg;
  plan_cfg.budget_bytes = cfg.budget_bytes;
  plan_cfg.cyclic = cfg.cyclic_plan;
  StreamPlan plan = compile_stream_plan(out.info, plan_cfg);
  auto source = std::make_shared<ArchiveShardSource>(path, out.info);
  out.streamer =
      std::make_shared<ShardStreamer>(std::move(source), std::move(plan), cfg);
  out.op = std::make_unique<mdc::MdcOperator>(out.info.nt, out.info.freq_bins,
                                              out.streamer);
  return out;
}

}  // namespace tlrwse::oocache
