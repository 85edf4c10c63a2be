//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "support/ThreadPool.h"

#include <cstring>

using namespace primsel;
using namespace primsel::serve;

namespace {

/// Deep copy of a tensor (slot contexts are reused across batches, so the
/// response must own its bytes).
Tensor3D cloneTensor(const Tensor3D &T) {
  Tensor3D Out(T.channels(), T.height(), T.width(), T.layout());
  std::memcpy(Out.data(), T.data(),
              static_cast<size_t>(T.size()) * sizeof(float));
  return Out;
}

} // namespace

void primsel::serve::executeBatch(
    const std::shared_ptr<const CompiledNet> &Net, Batch &B,
    std::vector<std::unique_ptr<ExecutionContext>> &Slots,
    const ExecutionContextOptions &CtxOpts, ThreadPool &SlotPool, Clock &Clk,
    std::atomic<uint64_t> &DeadlineMisses, size_t MaxRetainedSlots) {
  size_t K = B.Requests.size();
  while (Slots.size() < K)
    Slots.push_back(Net->newContext(CtxOpts));

  SlotPool.parallelFor(0, static_cast<int64_t>(K), [&](int64_t I) {
    BatchRequest &Rq = B.Requests[static_cast<size_t>(I)];
    Slots[static_cast<size_t>(I)]->run(*Rq.Input);

    ServeResponse Resp;
    Resp.Status = ServeStatus::Ok;
    Resp.Output = cloneTensor(Slots[static_cast<size_t>(I)]->networkOutput());
    Resp.BatchSize = static_cast<unsigned>(K);
    Resp.QueueNs = B.FormedNs - Rq.ArrivalNs;
    TimeNs DoneNs = Clk.now();
    Resp.TotalNs = DoneNs - Rq.ArrivalNs;
    Resp.MissedDeadline = Rq.DeadlineNs != 0 && DoneNs > Rq.DeadlineNs;
    if (Resp.MissedDeadline)
      DeadlineMisses.fetch_add(1, std::memory_order_relaxed);
    Rq.Done.set_value(std::move(Resp));
  });

  // Release slot contexts (and their arena slabs) an oversized batch grew
  // past the retention cap; the steady-state set stays warm.
  if (MaxRetainedSlots != 0 && Slots.size() > MaxRetainedSlots)
    Slots.resize(MaxRetainedSlots);
}

Server::Server(std::shared_ptr<const CompiledNet> Compiled,
               const ServerOptions &Options, Clock &Clk)
    : Net(std::move(Compiled)), Opts(Options), Queue(Options.Batch, Clk) {
  unsigned Workers = std::max(1u, Opts.Workers);
  Threads.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([this] { workerLoop(); });
}

Server::~Server() { shutdown(); }

SubmitTicket Server::submit(const Tensor3D &Input, TimeNs DeadlineNs) {
  return Queue.submit(Input, DeadlineNs);
}

void Server::shutdown() {
  std::lock_guard<std::mutex> G(ShutdownMutex);
  if (Stopped)
    return;
  Queue.close();
  for (std::thread &T : Threads)
    T.join();
  Threads.clear();
  Stopped = true;
}

ServerStats Server::stats() const {
  ServerStats S;
  S.RequestsExecuted = RequestsExecuted.load(std::memory_order_relaxed);
  S.BatchesExecuted = BatchesExecuted.load(std::memory_order_relaxed);
  S.DeadlineMisses = DeadlineMisses.load(std::memory_order_relaxed);
  return S;
}

void Server::workerLoop() {
  // Per-worker state: one context per batch slot (created on demand, so a
  // server that only ever sees partial batches never pays for the full
  // set) and a pool to run the slots of one batch concurrently. Slot
  // contexts are single-threaded -- parallelism comes from slots, the §8
  // image-parallel schedule -- and never shared across workers.
  ExecutionContextOptions CtxOpts;
  CtxOpts.Threads = 1;
  CtxOpts.UseArena = Opts.UseArena;

  unsigned MaxSlots = std::max(1u, Opts.Batch.MaxBatch);
  unsigned PoolWidth = Opts.BatchThreads == 0
                           ? MaxSlots
                           : std::min(Opts.BatchThreads, MaxSlots);
  std::vector<std::unique_ptr<ExecutionContext>> Slots;
  ThreadPool SlotPool(PoolWidth);
  Clock &Clk = Queue.clock();

  Batch B;
  while (Queue.waitPop(B)) {
    size_t K = B.Requests.size();
    executeBatch(Net, B, Slots, CtxOpts, SlotPool, Clk, DeadlineMisses,
                 MaxSlots);
    RequestsExecuted.fetch_add(K, std::memory_order_relaxed);
    BatchesExecuted.fetch_add(1, std::memory_order_relaxed);
    B.Requests.clear();
  }
}
