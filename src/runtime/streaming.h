// Streaming pipelined execution engine — one endpoint of the garble →
// transfer → eval pipeline.
//
// Composition (per endpoint):
//
//   transport Channel (TcpChannel / MemChannel)
//     └─ BufferedChannel        small control messages coalesce
//          └─ GarblerSession / EvaluatorSession
//               with GcOptions{framed_tables, pool}
//                 ├─ framed table stream: the garbler ships each
//                 │  completed batch window as a length-prefixed frame
//                 │  the moment it drains, and the evaluator consumes
//                 │  frame by frame — garbling, transfer, and
//                 │  evaluation of one circuit overlap in time
//                 └─ ThreadPool: batch windows are sharded across
//                    cores on the garbler side (byte-identical)
//
// This header is the composition layer the multi-session server, the
// client driver, and the load-generator all build on.
#pragma once

#include <memory>
#include <string>

#include "crypto/hash_backend.h"
#include "gc/protocol.h"
#include "net/buffered_channel.h"
#include "support/thread_pool.h"

namespace deepsecure::runtime {

struct StreamConfig {
  GcPipeline pipeline = GcPipeline::kBatched;
  /// Frame the garbled-table stream at batch-window granularity. Must
  /// match the peer (negotiated in the session hello).
  bool framed_tables = true;
  /// Width-scheduled gate order (circuit/schedule.h). Changes the table
  /// stream order, so it must match the peer — negotiated in the hello
  /// flags, and the chain fingerprint covers the scheduled netlist.
  bool schedule = gc_schedule_default();
  /// Worker threads for garbler-side window sharding; 0 = garble on the
  /// session thread only.
  size_t garble_threads = 0;
  /// Worker threads for evaluator-side window sharding (the same
  /// per-shard tweak/table-order invariant as the garbler's pool); 0 =
  /// evaluate on the session thread only.
  size_t eval_threads = 0;
  /// BufferedChannel staging size for small protocol messages.
  size_t channel_buffer = 1 << 16;
  /// Batch AES kernel by name ("vaes16", "aesni8", "bitsliced8",
  /// "scalar"). Purely local — every backend produces byte-identical
  /// tables, so this is never negotiated with the peer. Empty, unknown,
  /// or unavailable on this host = the process-wide selection
  /// (DEEPSECURE_HASH_BACKEND env, then CPUID auto-dispatch).
  std::string hash_backend;

  GcOptions gc_options(ThreadPool* pool) const {
    GcOptions o;
    o.pipeline = pipeline;
    o.framed_tables = framed_tables;
    o.schedule = schedule;
    o.pool = pool;
    if (!hash_backend.empty()) {
      const HashBackend* be = find_hash_backend(hash_backend);
      if (be != nullptr && be->available()) o.hash_backend = be;
    }
    return o;
  }
};

/// Client-side engine: owns the shard pool and the buffered channel, and
/// drives a GarblerSession over them. The underlying transport must
/// outlive this object.
class StreamingGarbler {
 public:
  StreamingGarbler(Channel& transport, Block seed, const StreamConfig& cfg);

  BitVec run_chain(const std::vector<Circuit>& chain, const BitVec& data_bits);
  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& data_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }
  /// Direct session access for the offline/online split (precomputed
  /// OTs, material push, begin/finish_online) — see gc/protocol.h.
  GarblerSession& session() { return *session_; }

 private:
  std::unique_ptr<ThreadPool> pool_;  // may be null (0 threads)
  BufferedChannel ch_;
  std::unique_ptr<GarblerSession> session_;
};

/// Server-side engine: evaluator role (the model owner in the paper).
class StreamingEvaluator {
 public:
  StreamingEvaluator(Channel& transport, const StreamConfig& cfg);

  BitVec run_chain(const std::vector<Circuit>& chain,
                   const BitVec& weight_bits);
  BitVec run_sequential(const Circuit& step, size_t cycles,
                        const BitVec& weight_bits);

  const SessionTrace& trace() const { return session_->trace(); }
  BufferedChannel& channel() { return ch_; }

 private:
  std::unique_ptr<ThreadPool> pool_;  // may be null (0 eval threads)
  BufferedChannel ch_;
  std::unique_ptr<EvaluatorSession> session_;
};

}  // namespace deepsecure::runtime
