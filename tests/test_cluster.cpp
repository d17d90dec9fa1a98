// Tests for the distributed serving tier: wire-protocol framing (round
// trips, truncation, garbage rejection), the shard planner's placement
// properties, the worker client's pipelined exchanges over a real unix
// socket (reply order, typed failure when the peer dies with requests in
// flight), and — over the in-process LocalChannel, which round-trips
// every frame through the real encode/decode path — the bitwise identity
// of cluster solves with the single-process operator for dense, TLR, and
// shared-basis kernels, plus the typed failure semantics (worker death,
// quotas, deadlines, cancellation).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tlrwse/cluster/frontend.hpp"
#include "tlrwse/cluster/shard_planner.hpp"
#include "tlrwse/cluster/transport.hpp"
#include "tlrwse/cluster/wire.hpp"
#include "tlrwse/cluster/worker.hpp"
#include "tlrwse/common/rng.hpp"
#include "tlrwse/io/archive.hpp"
#include "tlrwse/mdc/mdc_operator.hpp"
#include "tlrwse/mdd/mdd_solver.hpp"
#include "tlrwse/seismic/modeling.hpp"

namespace tlrwse::cluster {
namespace {

// ---------------------------------------------------------------- wire --

TEST(Wire, FrameRoundTripsEveryMessageType) {
  LoadShardMsg load;
  load.shard_id = 7;
  load.q_begin = 3;
  load.q_end = 9;
  load.archive_path = "/tmp/survey.tlra";
  LoadShardOkMsg load_ok;
  load_ok.shard_id = 7;
  load_ok.nt = 128;
  load_ok.ns = 48;
  load_ok.nr = 30;
  load_ok.freq_bins = {4, 5, 6};
  ApplyMsg apply;
  apply.request_id = 42;
  apply.shard_id = 7;
  apply.adjoint = true;
  apply.nrhs = 2;
  apply.deadline_s = 1.5;
  apply.data = {cf32{1.0f, -2.0f}, cf32{0.25f, 3.5f}};
  ApplyOkMsg apply_ok;
  apply_ok.request_id = 42;
  apply_ok.data = {cf32{-0.5f, 0.125f}};
  ErrorMsg error;
  error.request_id = 42;
  error.code = WireErrorCode::kDeadlineExceeded;
  error.message = "too slow";

  const auto round_trip = [](const Frame& f) {
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    Frame out;
    EXPECT_EQ(decode_frame(bytes, out), bytes.size());
    EXPECT_EQ(out.type, f.type);
    EXPECT_EQ(out.payload, f.payload);
    return out;
  };

  const auto l2 = LoadShardMsg::from_frame(round_trip(load.to_frame()));
  EXPECT_EQ(l2.shard_id, load.shard_id);
  EXPECT_EQ(l2.q_begin, load.q_begin);
  EXPECT_EQ(l2.q_end, load.q_end);
  EXPECT_EQ(l2.archive_path, load.archive_path);

  const auto lo2 = LoadShardOkMsg::from_frame(round_trip(load_ok.to_frame()));
  EXPECT_EQ(lo2.nt, load_ok.nt);
  EXPECT_EQ(lo2.ns, load_ok.ns);
  EXPECT_EQ(lo2.nr, load_ok.nr);
  EXPECT_EQ(lo2.freq_bins, load_ok.freq_bins);

  const auto a2 = ApplyMsg::from_frame(round_trip(apply.to_frame()));
  EXPECT_EQ(a2.request_id, apply.request_id);
  EXPECT_EQ(a2.shard_id, apply.shard_id);
  EXPECT_EQ(a2.adjoint, apply.adjoint);
  EXPECT_EQ(a2.nrhs, apply.nrhs);
  EXPECT_DOUBLE_EQ(a2.deadline_s, apply.deadline_s);
  ASSERT_EQ(a2.data.size(), apply.data.size());
  EXPECT_EQ(std::memcmp(a2.data.data(), apply.data.data(),
                        apply.data.size() * sizeof(cf32)),
            0);

  const auto ao2 = ApplyOkMsg::from_frame(round_trip(apply_ok.to_frame()));
  EXPECT_EQ(ao2.request_id, apply_ok.request_id);
  ASSERT_EQ(ao2.data.size(), apply_ok.data.size());
  EXPECT_EQ(std::memcmp(ao2.data.data(), apply_ok.data.data(),
                        apply_ok.data.size() * sizeof(cf32)),
            0);

  (void)MetricsMsg::from_frame(round_trip(MetricsMsg{}.to_frame()));
  (void)ShutdownMsg::from_frame(round_trip(ShutdownMsg{}.to_frame()));
  (void)ShutdownOkMsg::from_frame(round_trip(ShutdownOkMsg{}.to_frame()));

  const auto e2 = ErrorMsg::from_frame(round_trip(error.to_frame()));
  EXPECT_EQ(e2.request_id, error.request_id);
  EXPECT_EQ(e2.code, error.code);
  EXPECT_EQ(e2.message, error.message);
}

TEST(Wire, MetricsSnapshotRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("a.gauge").add(-7);
  reg.histogram("a.hist").record(0.5);
  reg.histogram("a.hist").record(2.0);
  MetricsOkMsg msg;
  msg.snapshot = reg.snapshot();

  const auto decoded =
      MetricsOkMsg::from_frame([&] {
        const auto bytes = encode_frame(msg.to_frame());
        Frame f;
        EXPECT_EQ(decode_frame(bytes, f), bytes.size());
        return f;
      }());
  EXPECT_EQ(decoded.snapshot.counters.at("a.count"), 3u);
  EXPECT_EQ(decoded.snapshot.gauges.at("a.gauge"), -7);
  ASSERT_EQ(decoded.snapshot.histograms.size(), 1u);
  EXPECT_EQ(decoded.snapshot.histograms[0].name, "a.hist");
  EXPECT_EQ(decoded.snapshot.histograms[0].snap.count, 2u);
  EXPECT_DOUBLE_EQ(decoded.snapshot.histograms[0].snap.sum, 2.5);
}

TEST(Wire, TruncatedFramesAskForMoreBytes) {
  TraceDumpMsg msg;
  msg.trace_id = 9;
  const std::vector<std::uint8_t> bytes = encode_frame(msg.to_frame());
  Frame out;
  // Partial header, then a complete header with partial payload: both are
  // "need more", not errors.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_EQ(decode_frame(std::span(bytes.data(), n), out), 0u);
  }
  EXPECT_EQ(decode_frame(bytes, out), bytes.size());
}

TEST(Wire, GarbageHeaderIsRejectedTyped) {
  TraceDumpMsg msg;
  msg.trace_id = 9;
  std::vector<std::uint8_t> bytes = encode_frame(msg.to_frame());
  Frame out;

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_frame(bad_magic, out), WireError);

  auto bad_version = bytes;
  bad_version[4] ^= 0xFF;
  EXPECT_THROW((void)decode_frame(bad_version, out), WireError);

  // An implausible payload length must be rejected before any allocation,
  // even though the buffer is far shorter than the claimed length.
  auto oversized = bytes;
  const std::uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(oversized.data() + 8, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_frame(oversized, out), WireError);
}

TEST(Wire, TrailingAndMissingBytesAreRejected) {
  TraceDumpMsg msg;
  msg.trace_id = 9;
  Frame frame = msg.to_frame();
  frame.payload.push_back(0);  // trailing junk -> expect_end throws
  EXPECT_THROW((void)TraceDumpMsg::from_frame(frame), WireError);

  Frame short_frame = msg.to_frame();
  short_frame.payload.pop_back();  // truncated field -> checked take throws
  EXPECT_THROW((void)TraceDumpMsg::from_frame(short_frame), WireError);

  // A string length pointing past the end of the payload must not read.
  LoadShardMsg load;
  load.shard_id = 1;
  load.q_begin = 0;
  load.q_end = 1;
  load.archive_path = "abcdef";
  Frame lying = load.to_frame();
  lying.payload.resize(lying.payload.size() - 3);
  EXPECT_THROW((void)LoadShardMsg::from_frame(lying), WireError);
}

TEST(Wire, FromFrameChecksTheType) {
  TraceDumpMsg msg;
  msg.trace_id = 1;
  EXPECT_THROW((void)ApplyMsg::from_frame(msg.to_frame()), WireError);
}

// ------------------------------------------------------------- planner --

TEST(ShardPlanner, ShardsPartitionTheFrequencyRange) {
  const std::vector<double> weights(14, 100.0);
  PlannerConfig cfg;
  cfg.num_workers = 3;
  const ShardPlan plan = plan_shards(weights, cfg);
  ASSERT_FALSE(plan.replicated);
  ASSERT_EQ(plan.shards.size(), 3u);
  index_t expected_begin = 0;
  for (const auto& [begin, end] : plan.shards) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);  // non-empty
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, static_cast<index_t>(weights.size()));
}

TEST(ShardPlanner, UniformWeightsBalanceWithinOneFrequency) {
  const std::vector<double> weights(16, 50.0);
  PlannerConfig cfg;
  cfg.num_workers = 4;
  const ShardPlan plan = plan_shards(weights, cfg);
  for (const auto& [begin, end] : plan.shards) {
    EXPECT_GE(end - begin, 3);
    EXPECT_LE(end - begin, 5);
  }
}

TEST(ShardPlanner, MoreWorkersThanFrequenciesCapsTheShardCount) {
  const std::vector<double> weights(3, 10.0);
  PlannerConfig cfg;
  cfg.num_workers = 8;
  const ShardPlan plan = plan_shards(weights, cfg);
  EXPECT_EQ(plan.shards.size(), 3u);
}

TEST(ShardPlanner, SmallOperatorsReplicate) {
  const std::vector<double> weights(8, 10.0);
  PlannerConfig cfg;
  cfg.num_workers = 4;
  cfg.replicate_max_bytes = 1000.0;  // total 80 <= 1000 -> replicate
  EXPECT_TRUE(plan_shards(weights, cfg).replicated);
  cfg.replicate_max_bytes = 50.0;  // too big to replicate -> shard
  EXPECT_FALSE(plan_shards(weights, cfg).replicated);
}

// ----------------------------------------------------------- transport --

TEST(LocalChannel, RoundTripsThroughTheRealBytePath) {
  // The handler sees exactly the frame the encode/decode path produces, so
  // LocalChannel tests certify the same bytes a socket would carry.
  LocalChannel chan([](const Frame& f) {
    const TraceDumpMsg msg = TraceDumpMsg::from_frame(f);
    TraceDumpOkMsg ok;
    ok.trace_id = msg.trace_id + 1;
    return ok.to_frame();
  });
  TraceDumpMsg msg;
  msg.trace_id = 41;
  const auto reply = TraceDumpOkMsg::from_frame(chan.call(msg.to_frame()));
  EXPECT_EQ(reply.trace_id, 42u);
}

TEST(LocalChannel, KillFailsCallsTyped) {
  LocalChannel chan([](const Frame& f) { return f; });
  chan.kill();
  TraceDumpMsg msg;
  msg.trace_id = 1;
  try {
    (void)chan.call(msg.to_frame());
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportError::Kind::kClosed);
  }
}

/// A unix socket path unique to this process, removed on destruction.
struct SocketPath {
  explicit SocketPath(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              (std::to_string(::getpid()) + "." + name + ".sock"))
                 .string()) {}
  ~SocketPath() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  std::string path;
};

Frame dump_frame(std::uint64_t id) {
  TraceDumpMsg msg;
  msg.trace_id = id;
  return msg.to_frame();
}

TEST(SocketChannel, PipelinedCallsReturnInRequestOrder) {
  // The worker client keeps a second request on the connection while the
  // first is served; replies must still match their requests one to one.
  const SocketPath sock("pipeline");
  auto server = SocketServer::listen_unix(sock.path, [](const Frame& f) {
    TraceDumpOkMsg ok;
    ok.trace_id = TraceDumpMsg::from_frame(f).trace_id;
    return ok.to_frame();
  });
  WorkerClient client(SocketChannel::connect_unix(sock.path), "w0");
  std::vector<std::future<Frame>> replies;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    replies.push_back(client.call_async(dump_frame(id)));
  }
  for (std::uint64_t id = 1; id <= 32; ++id) {
    EXPECT_EQ(TraceDumpOkMsg::from_frame(replies[id - 1].get()).trace_id, id);
  }
  EXPECT_TRUE(client.alive());
  client.close();
  server->stop();
}

TEST(SocketChannel, PeerDeathFailsEveryQueuedAndInFlightCallTyped) {
  // A peer that answers the first request and hangs up while the second
  // is on the wire: the first reply arrives, every later call fails with a
  // TransportError and the worker is marked dead.
  const SocketPath sock("peer-death");
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  std::thread peer([lfd] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    int frames = 0;
    while (frames < 2) {
      Frame f;
      const std::size_t used = decode_frame(buf, f);
      if (used == 0) {
        const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
        if (r <= 0) break;
        buf.insert(buf.end(), chunk, chunk + r);
        continue;
      }
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(used));
      if (++frames == 1) {
        TraceDumpOkMsg ok;
        ok.trace_id = TraceDumpMsg::from_frame(f).trace_id;
        const std::vector<std::uint8_t> bytes = encode_frame(ok.to_frame());
        (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);  // dies with the second request unanswered
  });
  WorkerClient client(SocketChannel::connect_unix(sock.path), "w0");
  std::vector<std::future<Frame>> replies;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    replies.push_back(client.call_async(dump_frame(id)));
  }
  EXPECT_EQ(TraceDumpOkMsg::from_frame(replies[0].get()).trace_id, 1u);
  for (std::size_t i = 1; i < replies.size(); ++i) {
    EXPECT_THROW((void)replies[i].get(), TransportError) << "call " << i + 1;
  }
  EXPECT_FALSE(client.alive());
  EXPECT_THROW((void)client.call(dump_frame(5)), TransportError);
  peer.join();
  ::close(lfd);
}

// -------------------------------------------------------------- worker --

TEST(ShardWorker, UnknownShardAndBadPayloadAreTypedErrors) {
  ShardWorker worker;
  ApplyMsg apply;
  apply.request_id = 5;
  apply.shard_id = 99;
  apply.nrhs = 1;
  const auto err = ErrorMsg::from_frame(worker.handle(apply.to_frame()));
  EXPECT_EQ(err.code, WireErrorCode::kUnknownShard);
  EXPECT_EQ(err.request_id, 5u);

  Frame bogus;
  bogus.type = 999;
  const auto err2 = ErrorMsg::from_frame(worker.handle(bogus));
  EXPECT_EQ(err2.code, WireErrorCode::kBadRequest);
}

TEST(ShardWorker, MissingArchiveLoadIsTyped) {
  ShardWorker worker;
  LoadShardMsg load;
  load.shard_id = 1;
  load.q_begin = 0;
  load.q_end = 1;
  load.archive_path = "/nonexistent/archive.tlra";
  const auto err = ErrorMsg::from_frame(worker.handle(load.to_frame()));
  EXPECT_EQ(err.code, WireErrorCode::kArchiveMissing);
}

// ------------------------------------------------------- dense parity --

/// Random dense kernels for a tiny operator; the same matrices feed both
/// the local MdcOperator and the workers, so a remote apply must be
/// bitwise identical to the local one.
std::vector<la::MatrixCF> dense_kernels(index_t nq, index_t ns, index_t nr) {
  Rng rng(7);
  std::vector<la::MatrixCF> out;
  for (index_t q = 0; q < nq; ++q) {
    la::MatrixCF K(ns, nr);
    fill_normal(rng, K.data(), static_cast<std::size_t>(ns * nr));
    out.push_back(std::move(K));
  }
  return out;
}

std::vector<std::unique_ptr<mdc::FrequencyMvm>> dense_mvms(
    const std::vector<la::MatrixCF>& mats, std::size_t begin,
    std::size_t end) {
  std::vector<std::unique_ptr<mdc::FrequencyMvm>> out;
  for (std::size_t q = begin; q < end; ++q) {
    out.push_back(std::make_unique<mdc::DenseMvm>(mats[q]));
  }
  return out;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(RemoteMdcOperator, DenseShardedApplyMatchesLocalBitwise) {
  const index_t nt = 32, ns = 6, nr = 5, nq = 4;
  const std::vector<index_t> bins = {1, 2, 3, 4};
  const auto mats = dense_kernels(nq, ns, nr);

  mdc::MdcOperator local(nt, bins, dense_mvms(mats, 0, 4));

  // Two workers, two frequencies each, shards injected directly (dense
  // kernels have no archive format).
  auto w0 = std::make_unique<ShardWorker>();
  auto w1 = std::make_unique<ShardWorker>();
  w0->add_shard(1, nt, ns, nr, {bins[0], bins[1]}, dense_mvms(mats, 0, 2));
  w1->add_shard(2, nt, ns, nr, {bins[2], bins[3]}, dense_mvms(mats, 2, 4));

  std::vector<std::unique_ptr<WorkerClient>> fleet;
  ShardWorker* raw0 = w0.get();
  ShardWorker* raw1 = w1.get();
  fleet.push_back(std::make_unique<WorkerClient>(
      std::make_unique<LocalChannel>(
          [raw0](const Frame& f) { return raw0->handle(f); }),
      "w0"));
  fleet.push_back(std::make_unique<WorkerClient>(
      std::make_unique<LocalChannel>(
          [raw1](const Frame& f) { return raw1->handle(f); }),
      "w1"));

  auto placement = std::make_shared<Placement>();
  placement->nt = nt;
  placement->ns = ns;
  placement->nr = nr;
  ShardAssignment s0;
  s0.shard_id = 1;
  s0.q_begin = 0;
  s0.q_end = 2;
  s0.freq_bins = {bins[0], bins[1]};
  s0.workers = {0};
  ShardAssignment s1;
  s1.shard_id = 2;
  s1.q_begin = 2;
  s1.q_end = 4;
  s1.freq_bins = {bins[2], bins[3]};
  s1.workers = {1};
  placement->shards = {s0, s1};

  RemoteMdcOperator remote(fleet, placement, /*request_id=*/7);
  ASSERT_EQ(remote.rows(), local.rows());
  ASSERT_EQ(remote.cols(), local.cols());

  Rng rng(11);
  std::vector<float> x(static_cast<std::size_t>(local.cols()));
  fill_normal(rng, x.data(), x.size());
  std::vector<float> y_local(static_cast<std::size_t>(local.rows()));
  std::vector<float> y_remote(y_local.size());
  local.apply(x, y_local);
  remote.apply(x, y_remote);
  EXPECT_TRUE(bitwise_equal(y_local, y_remote));

  std::vector<float> x_local(x.size()), x_remote(x.size());
  local.apply_adjoint(y_local, x_local);
  remote.apply_adjoint(y_local, x_remote);
  EXPECT_TRUE(bitwise_equal(x_local, x_remote));

  // Batched forms: each RHS column bitwise equal to the local batch.
  const index_t nrhs = 3;
  std::vector<float> X(x.size() * static_cast<std::size_t>(nrhs));
  fill_normal(rng, X.data(), X.size());
  std::vector<float> Y_local(y_local.size() * static_cast<std::size_t>(nrhs));
  std::vector<float> Y_remote(Y_local.size());
  local.apply_batch(X, Y_local, nrhs);
  remote.apply_batch(X, Y_remote, nrhs);
  EXPECT_EQ(std::memcmp(Y_local.data(), Y_remote.data(),
                        Y_local.size() * sizeof(float)),
            0);
}

// --------------------------------------------------- cluster fixtures --

struct TempFile {
  std::string path;
  // The pid keeps concurrent ctest shards of this binary (each TEST runs
  // as its own process) from clobbering each other's fixture files.
  explicit TempFile(const char* name)
      : path((std::filesystem::temp_directory_path() /
              (std::to_string(::getpid()) + "." + name))
                 .string()) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(ShardWorker, UnreadableArchiveLoadIsInternalNotMissing) {
  // archive_missing means the file is absent; an existing file that is not
  // an archive is an internal load failure on the wire.
  TempFile file("tlrwse_worker_garbage.tlra");
  {
    std::ofstream os(file.path, std::ios::binary);
    os << "garbage";
  }
  ShardWorker worker;
  LoadShardMsg load;
  load.shard_id = 1;
  load.q_begin = 0;
  load.q_end = 1;
  load.archive_path = file.path;
  const auto err = ErrorMsg::from_frame(worker.handle(load.to_frame()));
  EXPECT_EQ(err.code, WireErrorCode::kInternal) << err.message;
  const TempFile absent("tlrwse_worker_absent.tlra");  // never written
  load.archive_path = absent.path;
  EXPECT_EQ(ErrorMsg::from_frame(worker.handle(load.to_frame())).code,
            WireErrorCode::kArchiveMissing);
}

const seismic::SeismicDataset& dataset() {
  static const seismic::SeismicDataset data = [] {
    seismic::DatasetConfig cfg;
    cfg.geometry = seismic::AcquisitionGeometry::small_scale(8, 6, 6, 5);
    cfg.nt = 128;
    cfg.f_min = 4.0;
    cfg.f_max = 40.0;
    return seismic::build_dataset(cfg);
  }();
  return data;
}

/// One per-frequency ("TLRA") archive on disk, built once.
const std::string& tlr_archive_path() {
  static const TempFile file("tlrwse_cluster_test.tlra");
  static const bool built = [] {
    tlr::CompressionConfig cc;
    cc.nb = 12;
    cc.acc = 1e-4;
    io::save_archive(file.path, io::build_archive(dataset(), cc));
    return true;
  }();
  (void)built;
  return file.path;
}

/// The all-fp16 quantized twin of tlr_archive_path(), built once.
const std::string& half_archive_path() {
  static const TempFile file("tlrwse_cluster_test_fp16.tlra");
  static const bool built = [] {
    tlr::CompressionConfig cc;
    cc.nb = 12;
    cc.acc = 1e-4;
    auto archive = io::build_archive(dataset(), cc);
    tlr::MixedPrecisionPolicy policy;
    policy.fp16_below = 2.0;  // every tile
    policy.bf16_below = 0.0;
    io::quantize_archive(archive, policy);
    io::save_archive(file.path, archive);
    return true;
  }();
  (void)built;
  return file.path;
}

/// One shared-basis ("TLRS") archive on disk, built once.
const std::string& shared_archive_path() {
  static const TempFile file("tlrwse_cluster_test.tlrs");
  static const bool built = [] {
    tlr::SharedBasisConfig sc;
    sc.nb = 12;
    sc.acc = 1e-4;
    io::save_shared_archive(file.path,
                            io::build_shared_archive(dataset(), sc, 4));
    return true;
  }();
  (void)built;
  return file.path;
}

/// An in-process fleet: each WorkerClient speaks to its own ShardWorker
/// over a LocalChannel. The raw channel pointers stay valid for kill().
struct LocalFleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<LocalChannel*> channels;
  std::vector<std::unique_ptr<WorkerClient>> clients;
};

LocalFleet make_fleet(int n) {
  LocalFleet fleet;
  for (int i = 0; i < n; ++i) {
    fleet.workers.push_back(std::make_unique<ShardWorker>());
    ShardWorker* worker = fleet.workers.back().get();
    auto chan = std::make_unique<LocalChannel>(
        [worker](const Frame& f) { return worker->handle(f); });
    fleet.channels.push_back(chan.get());
    std::string name = "w";
    name += std::to_string(i);
    fleet.clients.push_back(
        std::make_unique<WorkerClient>(std::move(chan), std::move(name)));
  }
  return fleet;
}

ClusterRequest make_request(const std::string& archive,
                            serve::RequestKind kind, index_t vsrc,
                            int iters) {
  ClusterRequest req;
  req.op = serve::OperatorKey{archive, 12, 1e-4};
  req.kind = kind;
  req.vsrc = vsrc;
  req.rhs = mdd::virtual_source_rhs(dataset(), vsrc);
  req.lsqr.max_iters = iters;
  return req;
}

std::vector<float> reference_solve(const std::string& archive,
                                   serve::RequestKind kind, index_t vsrc,
                                   int iters) {
  const bool shared = io::peek_archive(archive).shared_basis;
  const auto op = shared
                      ? io::make_operator(io::load_shared_archive(archive))
                      : io::make_operator(io::load_archive(archive));
  const auto rhs = mdd::virtual_source_rhs(dataset(), vsrc);
  if (kind == serve::RequestKind::kAdjoint) {
    return mdd::adjoint_reflectivity(*op, rhs);
  }
  mdd::LsqrConfig lsqr;
  lsqr.max_iters = iters;
  return mdd::solve_mdd(*op, rhs, lsqr).x;
}

// ------------------------------------------------------ cluster solve --

TEST(ClusterService, TlrShardedSolveMatchesSingleProcessBitwise) {
  auto fleet = make_fleet(3);
  ClusterConfig cfg;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  auto lsqr = service.submit(
      make_request(path, serve::RequestKind::kLsqr, 2, 6));
  auto adj = service.submit(
      make_request(path, serve::RequestKind::kAdjoint, 3, 6));

  const auto r1 = lsqr.response.get();
  const auto r2 = adj.response.get();
  ASSERT_EQ(r1.status, ClusterStatus::kOk) << r1.error;
  ASSERT_EQ(r2.status, ClusterStatus::kOk) << r2.error;
  EXPECT_TRUE(bitwise_equal(
      r1.x, reference_solve(path, serve::RequestKind::kLsqr, 2, 6)));
  EXPECT_TRUE(bitwise_equal(
      r2.x, reference_solve(path, serve::RequestKind::kAdjoint, 3, 6)));
  EXPECT_EQ(service.live_workers(), 3u);
}

TEST(ClusterService, HalfArchiveShardedSolveMatchesSingleProcessBitwise) {
  // Workers load their frequency slices of a packed fp16 archive; the
  // widened per-frequency arithmetic is identical to the single-process
  // operator over the same file, so the distributed solve stays bitwise.
  auto fleet = make_fleet(3);
  ClusterConfig cfg;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = half_archive_path();
  auto lsqr = service.submit(
      make_request(path, serve::RequestKind::kLsqr, 2, 6));
  auto adj = service.submit(
      make_request(path, serve::RequestKind::kAdjoint, 3, 6));

  const auto r1 = lsqr.response.get();
  const auto r2 = adj.response.get();
  ASSERT_EQ(r1.status, ClusterStatus::kOk) << r1.error;
  ASSERT_EQ(r2.status, ClusterStatus::kOk) << r2.error;
  EXPECT_TRUE(bitwise_equal(
      r1.x, reference_solve(path, serve::RequestKind::kLsqr, 2, 6)));
  EXPECT_TRUE(bitwise_equal(
      r2.x, reference_solve(path, serve::RequestKind::kAdjoint, 3, 6)));
}

TEST(ClusterService, SharedBasisShardedSolveMatchesSingleProcessBitwise) {
  auto fleet = make_fleet(3);
  ClusterConfig cfg;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = shared_archive_path();
  auto lsqr = service.submit(
      make_request(path, serve::RequestKind::kLsqr, 2, 6));
  auto adj = service.submit(
      make_request(path, serve::RequestKind::kAdjoint, 1, 6));
  const auto r1 = lsqr.response.get();
  const auto r2 = adj.response.get();
  ASSERT_EQ(r1.status, ClusterStatus::kOk) << r1.error;
  ASSERT_EQ(r2.status, ClusterStatus::kOk) << r2.error;
  EXPECT_TRUE(bitwise_equal(
      r1.x, reference_solve(path, serve::RequestKind::kLsqr, 2, 6)));
  EXPECT_TRUE(bitwise_equal(
      r2.x, reference_solve(path, serve::RequestKind::kAdjoint, 1, 6)));
}

TEST(ClusterService, ReplicatedSolveMatchesAndSurvivesReplicaDeath) {
  auto fleet = make_fleet(3);
  ClusterConfig cfg;
  cfg.planner.replicate_max_bytes = 1e12;  // everything fits -> replicate
  std::vector<LocalChannel*> channels = fleet.channels;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  const auto warm = service
                        .submit(make_request(path, serve::RequestKind::kLsqr,
                                             2, 6))
                        .response.get();
  ASSERT_EQ(warm.status, ClusterStatus::kOk) << warm.error;
  const auto ref = reference_solve(path, serve::RequestKind::kLsqr, 2, 6);
  EXPECT_TRUE(bitwise_equal(warm.x, ref));

  // Kill the first replica: the exchange fails over to a survivor and the
  // solve still completes bitwise identical.
  channels[0]->kill();
  const auto after = service
                         .submit(make_request(path, serve::RequestKind::kLsqr,
                                              2, 6))
                         .response.get();
  ASSERT_EQ(after.status, ClusterStatus::kOk) << after.error;
  EXPECT_TRUE(bitwise_equal(after.x, ref));
  EXPECT_EQ(service.live_workers(), 2u);
}

TEST(ClusterService, ShardedWorkerDeathIsTypedThenReplans) {
  auto fleet = make_fleet(2);
  ClusterConfig cfg;
  std::vector<LocalChannel*> channels = fleet.channels;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  const auto warm = service
                        .submit(make_request(path, serve::RequestKind::kLsqr,
                                             2, 6))
                        .response.get();
  ASSERT_EQ(warm.status, ClusterStatus::kOk) << warm.error;

  // A sharded placement has one replica per shard: killing a worker makes
  // the next solve fail typed (never hang)...
  channels[1]->kill();
  const auto failed = service
                          .submit(make_request(path,
                                               serve::RequestKind::kLsqr, 2,
                                               6))
                          .response.get();
  EXPECT_EQ(failed.status, ClusterStatus::kWorkerFailed);
  EXPECT_TRUE(failed.x.empty());

  // ...and the failure drops the cached placement, so the request after
  // that replans onto the survivor and succeeds bitwise.
  const auto replanned = service
                             .submit(make_request(
                                 path, serve::RequestKind::kLsqr, 2, 6))
                             .response.get();
  ASSERT_EQ(replanned.status, ClusterStatus::kOk) << replanned.error;
  EXPECT_TRUE(bitwise_equal(
      replanned.x, reference_solve(path, serve::RequestKind::kLsqr, 2, 6)));
}

TEST(ClusterService, CoalescedAdjointsMatchSingleProcessBitwise) {
  auto fleet = make_fleet(2);
  ClusterConfig cfg;
  cfg.max_batch = 4;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  std::vector<SubmittedRequest> handles;
  for (index_t v = 0; v < 3; ++v) {
    handles.push_back(service.submit(
        make_request(path, serve::RequestKind::kAdjoint, v, 6)));
  }
  for (index_t v = 0; v < 3; ++v) {
    auto resp = handles[static_cast<std::size_t>(v)].response.get();
    ASSERT_EQ(resp.status, ClusterStatus::kOk) << resp.error;
    EXPECT_TRUE(bitwise_equal(
        resp.x,
        reference_solve(path, serve::RequestKind::kAdjoint, v, 6)));
  }
}

TEST(ClusterService, MissingArchiveIsTyped) {
  auto fleet = make_fleet(2);
  ClusterService service(ClusterConfig{}, std::move(fleet.clients));
  auto resp = service
                  .submit(ClusterRequest{
                      serve::OperatorKey{"/nonexistent/archive.tlra", 0, 0.0},
                      serve::RequestKind::kAdjoint,
                      "",
                      0,
                      std::vector<float>(16, 0.0f),
                      {},
                      0.0})
                  .response.get();
  EXPECT_EQ(resp.status, ClusterStatus::kArchiveMissing);
}

TEST(ClusterService, TenantQuotaIsTypedAndReleased) {
  auto fleet = make_fleet(2);
  ClusterConfig cfg;
  cfg.frontend_workers = 1;
  cfg.tenant_quota = 1;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  auto blocked = make_request(path, serve::RequestKind::kLsqr, 2, 50);
  blocked.tenant = "acme";
  // Holds the solve in-flight (quota charged) until the gate opens.
  blocked.lsqr.should_stop = [gate] {
    gate.wait();
    return true;
  };
  auto first = service.submit(std::move(blocked));

  auto second = make_request(path, serve::RequestKind::kLsqr, 3, 6);
  second.tenant = "acme";
  const auto rejected = service.submit(std::move(second)).response.get();
  EXPECT_EQ(rejected.status, ClusterStatus::kQuotaExceeded);

  release.set_value();
  const auto done = first.response.get();
  EXPECT_EQ(done.status, ClusterStatus::kOk) << done.error;

  // Quota released on completion: the same tenant is admitted again.
  auto third = make_request(path, serve::RequestKind::kLsqr, 3, 6);
  third.tenant = "acme";
  EXPECT_EQ(service.submit(std::move(third)).response.get().status,
            ClusterStatus::kOk);
}

TEST(ClusterService, ExpiredDeadlineIsTyped) {
  auto fleet = make_fleet(2);
  ClusterService service(ClusterConfig{}, std::move(fleet.clients));
  auto req = make_request(tlr_archive_path(), serve::RequestKind::kLsqr, 2,
                          6);
  req.deadline_s = 1e-9;  // expired before the solver can dequeue it
  EXPECT_EQ(service.submit(std::move(req)).response.get().status,
            ClusterStatus::kDeadlineExceeded);
}

TEST(ClusterService, CancelledRequestIsTyped) {
  auto fleet = make_fleet(2);
  ClusterConfig cfg;
  cfg.frontend_workers = 1;
  cfg.max_batch = 1;
  ClusterService service(cfg, std::move(fleet.clients));

  const std::string& path = tlr_archive_path();
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = make_request(path, serve::RequestKind::kLsqr, 2, 50);
  blocker.lsqr.should_stop = [gate] {
    gate.wait();
    return true;
  };
  auto first = service.submit(std::move(blocker));

  // The victim sits behind the blocked solve; the cancel lands while it is
  // still queued, so it rejects at dequeue without touching a worker.
  auto victim = service.submit(
      make_request(path, serve::RequestKind::kLsqr, 3, 6));
  service.cancel(victim.request_id);
  release.set_value();
  EXPECT_EQ(victim.response.get().status, ClusterStatus::kCancelled);
  EXPECT_EQ(first.response.get().status, ClusterStatus::kOk);
}

TEST(ClusterService, MergedSnapshotCoversFrontendAndWorkers) {
  auto fleet = make_fleet(2);
  ClusterService service(ClusterConfig{}, std::move(fleet.clients));
  const auto resp =
      service
          .submit(make_request(tlr_archive_path(),
                               serve::RequestKind::kAdjoint, 2, 6))
          .response.get();
  ASSERT_EQ(resp.status, ClusterStatus::kOk) << resp.error;

  const auto snap = service.cluster_snapshot();
  EXPECT_GE(snap.counters.at("cluster.completed"), 1u);
  EXPECT_GE(snap.counters.at("worker.applies"), 1u);
  EXPECT_GE(snap.counters.at("worker.shards_loaded"), 2u);
  EXPECT_GT(snap.gauges.at("worker.frequencies_resident"), 0);
}

TEST(ClusterService, ShutdownAsksWorkersToExit) {
  auto fleet = make_fleet(2);
  std::vector<ShardWorker*> workers;
  for (auto& w : fleet.workers) workers.push_back(w.get());
  {
    ClusterService service(ClusterConfig{}, std::move(fleet.clients));
    const auto resp =
        service
            .submit(make_request(tlr_archive_path(),
                                 serve::RequestKind::kAdjoint, 2, 6))
            .response.get();
    ASSERT_EQ(resp.status, ClusterStatus::kOk) << resp.error;
    service.shutdown();
  }
  for (ShardWorker* w : workers) EXPECT_TRUE(w->shutdown_requested());
}

// ---------------------------------------------------- tracing & health --

TEST(Wire, TraceAndHealthMessagesRoundTrip) {
  TraceDumpMsg dump;
  dump.trace_id = 99;
  const auto d2 = TraceDumpMsg::from_frame(dump.to_frame());
  EXPECT_EQ(d2.trace_id, 99u);

  TraceDumpOkMsg dump_ok;
  dump_ok.trace_id = 99;
  dump_ok.dropped_spans = 5;
  dump_ok.spans.push_back({"worker.apply", 99, 7, 3, 123456789ull, 4200ull});
  dump_ok.spans.push_back({"worker.mvm q=4", 99, 8, 7, 123460000ull, 900ull});
  const auto do2 = TraceDumpOkMsg::from_frame(dump_ok.to_frame());
  EXPECT_EQ(do2.trace_id, 99u);
  EXPECT_EQ(do2.dropped_spans, 5u);
  ASSERT_EQ(do2.spans.size(), 2u);
  EXPECT_EQ(do2.spans[0].name, "worker.apply");
  EXPECT_EQ(do2.spans[1].name, "worker.mvm q=4");
  EXPECT_EQ(do2.spans[0].span_id, 7u);
  EXPECT_EQ(do2.spans[1].parent_span_id, 7u);
  EXPECT_EQ(do2.spans[0].ts_ns, 123456789ull);
  EXPECT_EQ(do2.spans[1].dur_ns, 900ull);

  (void)HealthMsg::from_frame(HealthMsg{}.to_frame());
  HealthOkMsg health;
  health.uptime_ns = 5'000'000'000ull;
  health.inflight = 2;
  health.applies = 40;
  health.resident_bytes = 1.5e6;
  health.dropped_spans = 1;
  health.shards.push_back({3, 0, 16, 16, 1.5e6});
  const auto h2 = HealthOkMsg::from_frame(health.to_frame());
  EXPECT_EQ(h2.uptime_ns, health.uptime_ns);
  EXPECT_EQ(h2.inflight, 2u);
  EXPECT_EQ(h2.applies, 40u);
  EXPECT_DOUBLE_EQ(h2.resident_bytes, 1.5e6);
  EXPECT_EQ(h2.dropped_spans, 1u);
  ASSERT_EQ(h2.shards.size(), 1u);
  EXPECT_EQ(h2.shards[0].shard_id, 3u);
  EXPECT_EQ(h2.shards[0].q_begin, 0);
  EXPECT_EQ(h2.shards[0].q_end, 16);
  EXPECT_EQ(h2.shards[0].num_freqs, 16u);
}

TEST(Wire, OldVersionsTrailerlessAppliesAndUnknownCodesAreRejected) {
  // A version-1 peer's kApply is the current frame minus the 17-byte trace
  // context, with version 1 in the header. Neither the header nor the
  // shortened payload decodes: a mixed-build fleet fails typed.
  ApplyMsg apply;
  apply.request_id = 11;
  apply.shard_id = 2;
  apply.nrhs = 1;
  apply.data = {cf32{1.0f, 2.0f}};
  apply.trace = {77, 5, true};
  Frame v1 = apply.to_frame();
  v1.payload.resize(v1.payload.size() - 17);  // u64 + u64 + u8 trace
  EXPECT_THROW((void)ApplyMsg::from_frame(v1), WireError);

  std::vector<std::uint8_t> bytes = encode_frame(apply.to_frame());
  Frame out;
  EXPECT_EQ(decode_frame(bytes, out), bytes.size());
  for (const std::uint16_t version :
       {std::uint16_t{1}, std::uint16_t{kWireVersion - 1},
        std::uint16_t{kWireVersion + 1}}) {
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    EXPECT_THROW((void)decode_frame(bytes, out), WireError) << version;
  }

  // The full frame round-trips the context.
  const auto a2 = ApplyMsg::from_frame(apply.to_frame());
  EXPECT_EQ(a2.trace.trace_id, 77u);
  EXPECT_EQ(a2.trace.parent_span_id, 5u);
  EXPECT_TRUE(a2.trace.active());

  // ApplyOk without its 16 bytes of worker clock stamps is malformed too.
  ApplyOkMsg ok;
  ok.request_id = 11;
  ok.data = {cf32{0.5f, -0.5f}};
  ok.worker_recv_ns = 1000;
  ok.worker_send_ns = 2000;
  Frame ok_v1 = ok.to_frame();
  ok_v1.payload.resize(ok_v1.payload.size() - 16);
  EXPECT_THROW((void)ApplyOkMsg::from_frame(ok_v1), WireError);
  const auto o2 = ApplyOkMsg::from_frame(ok.to_frame());
  EXPECT_EQ(o2.worker_recv_ns, 1000u);
  EXPECT_EQ(o2.worker_send_ns, 2000u);

  // An error code outside WireErrorCode (0, the retired cancel code 4,
  // anything past the last) is rejected, not cast into the enum.
  ErrorMsg err;
  err.request_id = 3;
  err.message = "x";
  const Frame good = err.to_frame();
  EXPECT_EQ(ErrorMsg::from_frame(good).code, WireErrorCode::kInternal);
  for (const std::uint16_t code :
       {std::uint16_t{0}, std::uint16_t{4}, std::uint16_t{7},
        std::uint16_t{0xFFFF}}) {
    Frame bad = good;
    std::memcpy(bad.payload.data() + 8, &code, sizeof(code));
    EXPECT_THROW((void)ErrorMsg::from_frame(bad), WireError) << code;
  }
}

TEST(Wire, TraceAndHealthFramesRejectTruncationAndJunk) {
  TraceDumpOkMsg dump_ok;
  dump_ok.trace_id = 1;
  dump_ok.spans.push_back({"s", 1, 2, 0, 10, 5});
  HealthOkMsg health;
  health.shards.push_back({1, 0, 4, 4, 100.0});
  ApplyMsg apply;
  apply.request_id = 4;
  apply.shard_id = 1;
  apply.data = {cf32{1.0f, -1.0f}, cf32{0.5f, 2.0f}};
  apply.trace = {9, 3, true};
  ApplyOkMsg apply_ok;
  apply_ok.request_id = 4;
  apply_ok.data = {cf32{0.25f, 0.75f}};
  apply_ok.worker_recv_ns = 10;
  apply_ok.worker_send_ns = 20;

  const std::vector<Frame> frames = {
      TraceDumpMsg{}.to_frame(), dump_ok.to_frame(), health.to_frame(),
      apply.to_frame(), apply_ok.to_frame()};
  for (const Frame& f : frames) {
    const auto expect_rejected = [](const Frame& bad) {
      switch (static_cast<MsgType>(bad.type)) {
        case MsgType::kTraceDump:
          EXPECT_THROW((void)TraceDumpMsg::from_frame(bad), WireError);
          break;
        case MsgType::kTraceDumpOk:
          EXPECT_THROW((void)TraceDumpOkMsg::from_frame(bad), WireError);
          break;
        case MsgType::kApply:
          EXPECT_THROW((void)ApplyMsg::from_frame(bad), WireError);
          break;
        case MsgType::kApplyOk:
          EXPECT_THROW((void)ApplyOkMsg::from_frame(bad), WireError);
          break;
        default:
          EXPECT_THROW((void)HealthOkMsg::from_frame(bad), WireError);
      }
    };
    // Every truncation point: checked reads throw, never over-read.
    for (std::size_t n = 0; n < f.payload.size(); ++n) {
      Frame cut = f;
      cut.payload.resize(n);
      expect_rejected(cut);
    }
    // Trailing junk after a complete payload is rejected too (no message
    // has an optional field).
    Frame fat = f;
    fat.payload.push_back(0xAB);
    expect_rejected(fat);
  }

  // A span-count field lying past the end of the payload must not read.
  Frame lying = dump_ok.to_frame();
  lying.payload.resize(lying.payload.size() - 4);
  EXPECT_THROW((void)TraceDumpOkMsg::from_frame(lying), WireError);
}

TEST(ClusterService, TracedSolveProducesMergedTimeline) {
  auto fleet = make_fleet(2);
  ClusterService service(ClusterConfig{}, std::move(fleet.clients));

  auto req = make_request(tlr_archive_path(), serve::RequestKind::kLsqr, 1, 4);
  req.trace = true;
  const auto resp = service.submit(std::move(req)).response.get();
  ASSERT_EQ(resp.status, ClusterStatus::kOk) << resp.error;

  // One merged chrome://tracing document: single trace id (the request
  // id), frontend spans in pid 0, both workers' spans in pids 1 and 2.
  ASSERT_FALSE(resp.trace_json.empty());
  const std::string& json = resp.trace_json;
  const std::string id_key =
      "\"traceId\":\"" + std::to_string(resp.request_id) + "\"";
  EXPECT_NE(json.find(id_key), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("frontend.rfft"), std::string::npos);
  EXPECT_NE(json.find("frontend.rpc shard="), std::string::npos);
  EXPECT_NE(json.find("worker.apply"), std::string::npos);
  EXPECT_NE(json.find("worker.mvm q="), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // No foreign trace ids leaked in from other requests.
  EXPECT_EQ(json.find("\"trace_id\":\"0\""), std::string::npos);

  // Per-stage attribution rode along: the solve spent time in LSQR, the
  // FFTs, the remote MVMs, and the RPC layer, and the stages are disjoint
  // slices (mvm+rpc is the fan-out, bounded by the whole LSQR loop).
  EXPECT_GT(resp.stages.lsqr_s, 0.0);
  EXPECT_GT(resp.stages.fft_s, 0.0);
  EXPECT_GT(resp.stages.mvm_s, 0.0);
  EXPECT_GE(resp.stages.rpc_s, 0.0);
  EXPECT_EQ(resp.stages.lsqr_iterations, resp.iterations);
  EXPECT_LE(resp.stages.mvm_s + resp.stages.rpc_s,
            resp.stages.lsqr_s + resp.stages.fft_s + 1e-6);

  // An untraced request pays nothing and carries no timeline...
  auto quiet =
      make_request(tlr_archive_path(), serve::RequestKind::kLsqr, 2, 4);
  const auto quiet_resp = service.submit(std::move(quiet)).response.get();
  ASSERT_EQ(quiet_resp.status, ClusterStatus::kOk);
  EXPECT_TRUE(quiet_resp.trace_json.empty());
  // ...but still gets stage attribution (always-on).
  EXPECT_GT(quiet_resp.stages.lsqr_s, 0.0);
}

TEST(ClusterService, FleetHealthReportsShardsBytesAndSlo) {
  auto fleet = make_fleet(2);
  ClusterConfig cfg;
  cfg.slo.latency_objective_s = 1e-9;  // everything breaches
  ClusterService service(cfg, std::move(fleet.clients));

  const auto resp =
      service
          .submit(make_request(tlr_archive_path(),
                               serve::RequestKind::kAdjoint, 2, 6))
          .response.get();
  ASSERT_EQ(resp.status, ClusterStatus::kOk) << resp.error;

  const auto health = service.fleet_health();
  ASSERT_EQ(health.size(), 2u);
  index_t total_freqs = 0;
  for (const auto& wh : health) {
    EXPECT_TRUE(wh.alive) << wh.name;
    EXPECT_GT(wh.health.applies, 0u) << wh.name;
    EXPECT_GT(wh.health.resident_bytes, 0.0) << wh.name;
    EXPECT_GT(wh.health.uptime_ns, 0u) << wh.name;
    ASSERT_FALSE(wh.health.shards.empty()) << wh.name;
    for (const auto& sh : wh.health.shards) {
      EXPECT_LT(sh.q_begin, sh.q_end);
      EXPECT_EQ(sh.q_end - sh.q_begin, static_cast<index_t>(sh.num_freqs));
      EXPECT_GT(sh.bytes, 0.0);
      total_freqs += static_cast<index_t>(sh.num_freqs);
    }
  }
  // Sharded placement: the two workers partition the frequency axis.
  const auto nf = io::peek_archive(tlr_archive_path()).num_freqs();
  EXPECT_EQ(total_freqs, nf);

  // The JSON fleet view and the SLO window agree with the poll above.
  const std::string json = service.fleet_health_json();
  EXPECT_NE(json.find("\"live_workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  const auto win = service.slo_window();
  EXPECT_GE(win.count, 1u);
  EXPECT_GE(win.breaches, 1u);  // 1ns objective: every request breaches
  EXPECT_GT(win.burn_rate, 0.0);

  // Fleet-wide Prometheus export merges every worker's registry with the
  // frontend's (worker counters appear once, summed).
  const std::string prom = service.fleet_prometheus_text();
  EXPECT_NE(prom.find("worker_applies"), std::string::npos);
  EXPECT_NE(prom.find("cluster_completed"), std::string::npos);
}

}  // namespace
}  // namespace tlrwse::cluster
