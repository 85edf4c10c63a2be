//===- serve/Fleet.cpp ----------------------------------------------------===//

#include "serve/Fleet.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace primsel;
using namespace primsel::serve;

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

ModelRegistry::ModelRegistry(Engine &Eng, RegistryOptions Options)
    : Eng(Eng), Opts(Options) {
  assert(Opts.ArenaSlabsPerModel >= 1 && "an artifact serves at least one slot");
}

size_t ModelRegistry::artifactBytes(const CompiledNet &CN,
                                    unsigned ArenaSlabs) {
  // JIT artifacts additionally carry their mapped shared object (the
  // generated code plus the .so's own copy of the prepared state it
  // builds); charge it so a jitted fleet stays inside the same budget.
  return CN.preparedBytes() +
         CN.memoryPlan().arenaBytes() * static_cast<size_t>(ArenaSlabs) +
         CN.jitObjectBytes();
}

bool ModelRegistry::addModel(const std::string &Name, NetworkGraph Net) {
  std::lock_guard<std::mutex> G(Mutex);
  if (Models.count(Name))
    return false;
  Entry E(std::move(Net));
  E.Order = static_cast<unsigned>(Models.size());
  Models.emplace(Name, std::move(E));
  return true;
}

void ModelRegistry::makeRoomLocked(size_t NeedBytes, const Entry *Keep) {
  if (Opts.MemBudgetBytes == 0)
    return;
  while (Counters.ResidentBytes + NeedBytes > Opts.MemBudgetBytes) {
    // LRU victim among resident entries (never the one being published).
    Entry *Victim = nullptr;
    for (auto &KV : Models) {
      Entry &E = KV.second;
      if (&E == Keep || !std::atomic_load(&E.Artifact))
        continue;
      if (!Victim || E.LastUse < Victim->LastUse)
        Victim = &E;
    }
    assert(Victim && "budget admits NeedBytes once the fleet is evicted");
    std::atomic_store(&Victim->Artifact,
                      std::shared_ptr<const CompiledNet>());
    Counters.ResidentBytes -= Victim->Bytes;
    Victim->Bytes = 0;
    ++Counters.Evictions;
  }
}

std::shared_ptr<const CompiledNet>
ModelRegistry::acquire(const std::string &Name) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end()) {
    ++Counters.Unavailable;
    return nullptr;
  }
  Entry &E = It->second;
  for (;;) {
    if (std::shared_ptr<const CompiledNet> CN = std::atomic_load(&E.Artifact)) {
      E.LastUse = ++UseTick;
      ++Counters.Hits;
      return CN;
    }
    if (!E.Compiling)
      break;
    // Another thread is building this artifact; wait for it and re-check
    // (it may fail the budget, in which case we retry the compile).
    CompileDone.wait(Lock);
  }
  E.Compiling = true;
  Lock.unlock();

  if (TestOnCompileUnlocked)
    TestOnCompileUnlocked(Name);

  // Compile outside the registry lock so resident models keep serving.
  // The Engine's cost cache and PlanCache are shared mutable state, so
  // Engine use itself is serialized.
  std::shared_ptr<const CompiledNet> CN;
  bool CacheHit = false;
  {
    std::lock_guard<std::mutex> EG(EngineMutex);
    SelectionResult R = Eng.optimize(E.Net);
    CacheHit = R.PlanCacheHit;
    CN = Eng.compile(E.Net, R, Opts.Compile);
  }

  Lock.lock();
  E.Compiling = false;
  CompileDone.notify_all();
  ++Counters.Compiles;
  if (CacheHit)
    ++Counters.PlanCacheHits;
  else
    ++Counters.Solves;
  if (!CN) {
    // Optimize failure (no plan): the model stays unavailable.
    ++Counters.Unavailable;
    return nullptr;
  }
  // swap()/recompileAndSwap() may have published while we compiled with
  // the lock released. That artifact is newer and already accounted;
  // serve it and drop this compile -- republishing would clobber the
  // newer artifact and re-add Bytes on top of the swap's accounting,
  // inflating ResidentBytes with phantom bytes no entry owns.
  if (std::shared_ptr<const CompiledNet> Cur = std::atomic_load(&E.Artifact)) {
    E.LastUse = ++UseTick;
    ++Counters.Hits;
    return Cur;
  }

  size_t Bytes = artifactBytes(*CN, Opts.ArenaSlabsPerModel);
  if (Opts.MemBudgetBytes != 0 && Bytes > Opts.MemBudgetBytes) {
    // The artifact alone busts the budget: never publish it. The compile
    // still warmed the shared PlanCache, so a later, larger budget serves
    // it without a solve.
    ++Counters.Unavailable;
    return nullptr;
  }
  makeRoomLocked(Bytes, &E);
  std::atomic_store(&E.Artifact, CN);
  E.Bytes = Bytes;
  E.LastUse = ++UseTick;
  Counters.ResidentBytes += Bytes;
  Counters.PeakResidentBytes =
      std::max(Counters.PeakResidentBytes, Counters.ResidentBytes);
  return CN;
}

std::shared_ptr<const CompiledNet>
ModelRegistry::current(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return nullptr;
  return std::atomic_load(&It->second.Artifact);
}

bool ModelRegistry::swap(const std::string &Name,
                         std::shared_ptr<const CompiledNet> Artifact) {
  if (!Artifact)
    return false;
  size_t Bytes = artifactBytes(*Artifact, Opts.ArenaSlabsPerModel);
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return false;
  Entry &E = It->second;
  if (Opts.MemBudgetBytes != 0 && Bytes > Opts.MemBudgetBytes)
    return false;
  // Release the old artifact's accounting first, then make room for the
  // new size; in-flight requests keep the old artifact alive through the
  // shared_ptr they snapshotted, and it frees when the last one drains.
  if (std::atomic_load(&E.Artifact)) {
    Counters.ResidentBytes -= E.Bytes;
    E.Bytes = 0;
  }
  makeRoomLocked(Bytes, &E);
  std::atomic_store(&E.Artifact, std::move(Artifact));
  E.Bytes = Bytes;
  E.LastUse = ++UseTick;
  Counters.ResidentBytes += Bytes;
  Counters.PeakResidentBytes =
      std::max(Counters.PeakResidentBytes, Counters.ResidentBytes);
  ++Counters.Swaps;
  return true;
}

bool ModelRegistry::recompileAndSwap(const std::string &Name) {
  const NetworkGraph *Net;
  {
    std::lock_guard<std::mutex> G(Mutex);
    auto It = Models.find(Name);
    if (It == Models.end())
      return false;
    // Entries are never erased, so the graph reference outlives the lock.
    Net = &It->second.Net;
  }
  std::shared_ptr<const CompiledNet> CN;
  bool CacheHit = false;
  {
    std::lock_guard<std::mutex> EG(EngineMutex);
    SelectionResult R = Eng.optimize(*Net);
    CacheHit = R.PlanCacheHit;
    CN = Eng.compile(*Net, R, Opts.Compile);
  }
  {
    std::lock_guard<std::mutex> G(Mutex);
    ++Counters.Compiles;
    if (CacheHit)
      ++Counters.PlanCacheHits;
    else
      ++Counters.Solves;
  }
  return swap(Name, std::move(CN));
}

bool ModelRegistry::evict(const std::string &Name) {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  if (It == Models.end())
    return false;
  Entry &E = It->second;
  if (!std::atomic_load(&E.Artifact))
    return false;
  std::atomic_store(&E.Artifact, std::shared_ptr<const CompiledNet>());
  Counters.ResidentBytes -= E.Bytes;
  E.Bytes = 0;
  ++Counters.Evictions;
  return true;
}

std::vector<std::string> ModelRegistry::modelNames() const {
  std::lock_guard<std::mutex> G(Mutex);
  std::vector<std::pair<unsigned, std::string>> Ordered;
  Ordered.reserve(Models.size());
  for (const auto &KV : Models)
    Ordered.emplace_back(KV.second.Order, KV.first);
  std::sort(Ordered.begin(), Ordered.end());
  std::vector<std::string> Names;
  Names.reserve(Ordered.size());
  for (auto &P : Ordered)
    Names.push_back(std::move(P.second));
  return Names;
}

const NetworkGraph *ModelRegistry::graphOf(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mutex);
  auto It = Models.find(Name);
  return It == Models.end() ? nullptr : &It->second.Net;
}

size_t ModelRegistry::residentBytes() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Counters.ResidentBytes;
}

RegistryStats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Counters;
}

//===----------------------------------------------------------------------===//
// FleetServer
//===----------------------------------------------------------------------===//

FleetServer::FleetServer(ModelRegistry &Reg, const FleetOptions &Options,
                         Clock &Clk)
    : Reg(Reg), Opts(Options), Clk(Clk) {
  for (const std::string &Name : Reg.modelNames()) {
    auto L = std::make_unique<Lane>();
    L->Name = Name;
    L->Queue = std::make_unique<Batcher>(Opts.Batch, Clk);
    Lanes.emplace(Name, std::move(L));
  }
  unsigned Workers = std::max(1u, Opts.WorkersPerModel);
  for (auto &KV : Lanes) {
    Lane &L = *KV.second;
    L.Threads.reserve(Workers);
    for (unsigned W = 0; W < Workers; ++W)
      L.Threads.emplace_back([this, &L] { laneLoop(L); });
  }
}

FleetServer::~FleetServer() { shutdown(); }

SubmitTicket FleetServer::submit(const std::string &Model,
                                 const Tensor3D &Input, TimeNs DeadlineNs) {
  auto It = Lanes.find(Model);
  if (It == Lanes.end()) {
    UnknownModel.fetch_add(1, std::memory_order_relaxed);
    SubmitTicket Ticket;
    std::promise<ServeResponse> Done;
    Ticket.Response = Done.get_future();
    ServeResponse R;
    R.Status = ServeStatus::RejectedModelUnavailable;
    Done.set_value(std::move(R));
    return Ticket;
  }
  return It->second->Queue->submit(Input, DeadlineNs);
}

void FleetServer::shutdown() {
  std::lock_guard<std::mutex> G(ShutdownMutex);
  if (Stopped)
    return;
  for (auto &KV : Lanes)
    KV.second->Queue->close();
  for (auto &KV : Lanes) {
    for (std::thread &T : KV.second->Threads)
      T.join();
    KV.second->Threads.clear();
  }
  Stopped = true;
}

std::vector<std::string> FleetServer::modelNames() const {
  std::vector<std::string> Names;
  Names.reserve(Lanes.size());
  for (const auto &KV : Lanes)
    Names.push_back(KV.first);
  return Names;
}

BatcherStats FleetServer::batcherStats(const std::string &Model) const {
  auto It = Lanes.find(Model);
  return It == Lanes.end() ? BatcherStats() : It->second->Queue->stats();
}

LaneStats FleetServer::laneStats(const std::string &Model) const {
  LaneStats S;
  auto It = Lanes.find(Model);
  if (It == Lanes.end())
    return S;
  const Lane &L = *It->second;
  S.Exec.RequestsExecuted = L.RequestsExecuted.load(std::memory_order_relaxed);
  S.Exec.BatchesExecuted = L.BatchesExecuted.load(std::memory_order_relaxed);
  S.Exec.DeadlineMisses = L.DeadlineMisses.load(std::memory_order_relaxed);
  S.UnavailableBatches = L.UnavailableBatches.load(std::memory_order_relaxed);
  S.UnavailableRequests = L.UnavailableRequests.load(std::memory_order_relaxed);
  return S;
}

void FleetServer::laneLoop(Lane &L) {
  ExecutionContextOptions CtxOpts;
  CtxOpts.Threads = 1;
  CtxOpts.UseArena = Opts.UseArena;

  unsigned MaxSlots = std::max(1u, Opts.Batch.MaxBatch);
  unsigned PoolWidth = Opts.BatchThreads == 0
                           ? MaxSlots
                           : std::min(Opts.BatchThreads, MaxSlots);
  ThreadPool SlotPool(PoolWidth);

  // The lane's artifact snapshot: re-acquired per batch so eviction and
  // hot-swap take effect at the next batch boundary. Slot contexts bind
  // the snapshot's prepared kernels, so they rebuild when it changes.
  std::shared_ptr<const CompiledNet> Snap;
  std::vector<std::unique_ptr<ExecutionContext>> Slots;

  Batch B;
  while (L.Queue->waitPop(B)) {
    std::shared_ptr<const CompiledNet> CN = Reg.acquire(L.Name);
    if (!CN) {
      // Evicted past the budget (or registry failure): fail the batch
      // cleanly rather than stall the lane.
      TimeNs NowNs = Clk.now();
      for (BatchRequest &Rq : B.Requests) {
        ServeResponse Resp;
        Resp.Status = ServeStatus::RejectedModelUnavailable;
        Resp.QueueNs = B.FormedNs - Rq.ArrivalNs;
        Resp.TotalNs = NowNs - Rq.ArrivalNs;
        Rq.Done.set_value(std::move(Resp));
      }
      L.UnavailableBatches.fetch_add(1, std::memory_order_relaxed);
      L.UnavailableRequests.fetch_add(B.Requests.size(),
                                      std::memory_order_relaxed);
      B.Requests.clear();
      continue;
    }
    if (CN != Snap) {
      Slots.clear();
      Snap = std::move(CN);
    }

    size_t K = B.Requests.size();
    executeBatch(Snap, B, Slots, CtxOpts, SlotPool, Clk, L.DeadlineMisses,
                 MaxSlots);
    L.RequestsExecuted.fetch_add(K, std::memory_order_relaxed);
    L.BatchesExecuted.fetch_add(1, std::memory_order_relaxed);
    B.Requests.clear();
  }
}
