//===- serve/Server.h - Dynamic-batching inference server -------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched serving front end over one CompiledNet: a Batcher
/// (serve/Batcher.h) coalesces independently-arriving requests into
/// minibatches, and a pool of worker threads drains them. Each worker
/// owns one ExecutionContext per batch slot and runs the images of a
/// popped batch concurrently on its own slot pool -- the image-parallel
/// minibatch schedule (paper §8) applied at whole-network granularity.
/// Every slot executes the ordinary single-image path over the shared
/// PreparedKernels, so batched responses are bit-identical to the
/// sequential Executor by construction, independent of batch size, worker
/// count, or arrival interleaving.
///
/// Shutdown drains: shutdown() closes admission, lets the workers pop and
/// complete every already-admitted request (a closed batcher fires
/// partial batches immediately), then joins them. The destructor calls
/// shutdown(), so no request future is ever abandoned.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_SERVE_SERVER_H
#define PRIMSEL_SERVE_SERVER_H

#include "engine/CompiledNet.h"
#include "serve/Batcher.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace primsel {

class ThreadPool;

namespace serve {

/// Run every request of \p B on \p Net and resolve its promise with an Ok
/// response -- the one execution path shared by the single-model Server
/// and the fleet lanes, so both are bit-identical to the sequential
/// Executor by construction. Grows \p Slots (one ExecutionContext per
/// batch slot, created with \p CtxOpts) on demand and runs the slots
/// concurrently on \p SlotPool; callers reuse both across batches.
/// \p MaxRetainedSlots caps the contexts kept alive after the batch
/// drains: an oversized burst (a closed batcher flushing, a test feeding a
/// hand-built batch) may grow the pool past the steady-state batch bound,
/// and without the cap every worker would pin that high-water mark of
/// arenas forever. 0 = retain everything. Ok-but-late completions bump
/// \p DeadlineMisses.
void executeBatch(const std::shared_ptr<const CompiledNet> &Net, Batch &B,
                  std::vector<std::unique_ptr<ExecutionContext>> &Slots,
                  const ExecutionContextOptions &CtxOpts, ThreadPool &SlotPool,
                  Clock &Clk, std::atomic<uint64_t> &DeadlineMisses,
                  size_t MaxRetainedSlots = 0);

/// Server configuration.
struct ServerOptions {
  /// Batching policy (max batch size, batching window, admission bound).
  BatcherOptions Batch;
  /// Worker threads draining the batcher. Each owns its own contexts, so
  /// workers never share mutable state.
  unsigned Workers = 1;
  /// Pool width for running one batch's images concurrently inside a
  /// worker; 0 = Batch.MaxBatch (every slot of a full batch runs in
  /// parallel). 1 serializes the slots -- useful to bound a worker's
  /// footprint on small machines.
  unsigned BatchThreads = 0;
  /// Back each slot context's intermediates with its own arena slab.
  bool UseArena = true;
};

/// Per-server execution counters (the queue-side counters live in
/// BatcherStats).
struct ServerStats {
  uint64_t RequestsExecuted = 0;
  uint64_t BatchesExecuted = 0;
  /// Requests that completed Ok but after their deadline.
  uint64_t DeadlineMisses = 0;
};

/// A running batched-inference server over one immutable CompiledNet.
class Server {
public:
  /// Workers start immediately. \p Compiled must remain valid (shared
  /// ownership). \p Clk defaults to the process steady clock; tests pass
  /// a VirtualClock to drive the batching policy deterministically.
  Server(std::shared_ptr<const CompiledNet> Compiled,
         const ServerOptions &Options, Clock &Clk = steadyClock());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Submit one inference. Never blocks (admission control rejects when
  /// the queue is full). \p Input is borrowed until the future resolves;
  /// it must be CHW with the network's input shape. \p DeadlineNs is an
  /// absolute Clock timestamp (0 = none).
  SubmitTicket submit(const Tensor3D &Input, TimeNs DeadlineNs = 0);

  /// Cancel a queued request by ticket id.
  bool cancel(uint64_t Id) { return Queue.cancel(Id); }

  /// Stop admission, drain every admitted request, join the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  const CompiledNet &compiled() const { return *Net; }
  const ServerOptions &options() const { return Opts; }
  Clock &clock() const { return Queue.clock(); }
  size_t queueDepth() const { return Queue.queueDepth(); }
  BatcherStats batcherStats() const { return Queue.stats(); }
  ServerStats stats() const;

private:
  void workerLoop();

  std::shared_ptr<const CompiledNet> Net;
  ServerOptions Opts;
  Batcher Queue;
  std::vector<std::thread> Threads;
  bool Stopped = false;
  std::mutex ShutdownMutex;

  std::atomic<uint64_t> RequestsExecuted{0};
  std::atomic<uint64_t> BatchesExecuted{0};
  std::atomic<uint64_t> DeadlineMisses{0};
};

} // namespace serve
} // namespace primsel

#endif // PRIMSEL_SERVE_SERVER_H
