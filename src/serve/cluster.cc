#include "src/serve/cluster.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <tuple>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace symphony {
namespace {

// Live LIPs and replica count over the placeable entries of PlaceableLoads().
struct LoadTotals {
  size_t lips = 0;
  size_t placeable = 0;
};

LoadTotals Totals(const std::vector<size_t>& loads) {
  LoadTotals totals;
  for (size_t load : loads) {
    if (load != SIZE_MAX) {
      totals.lips += load;
      ++totals.placeable;
    }
  }
  return totals;
}

}  // namespace

SymphonyCluster::SymphonyCluster(Simulator* sim, ClusterOptions options)
    : sim_(sim), options_(std::move(options)) {
  assert(sim != nullptr);
  assert(options_.replicas > 0);
  slots_.reserve(options_.replicas);
  for (size_t i = 0; i < options_.replicas; ++i) {
    slots_.push_back(Slot{BuildReplica(i), i < options_.roles.size()
                                               ? options_.roles[i]
                                               : ReplicaRole::kUnified});
  }
  cost_model_ = std::make_unique<CostModel>(options_.server.model,
                                            options_.server.hardware);
  // ONE topology instance routes every cross-replica byte: IPC, journal
  // shipping, and store fetches contend for the same physical links.
  TopologyOptions topology_options = options_.topology;
  topology_options.replicas = options_.replicas;
  topology_ = std::make_unique<NetworkTopology>(
      sim_, cost_model_.get(), options_.server.fault_plan,
      options_.server.trace, topology_options);
  SnapshotStoreOptions store_options;
  store_options.sim = sim_;
  store_options.cost = cost_model_.get();
  store_options.fault_plan = options_.server.fault_plan;
  store_options.trace = options_.server.trace;
  store_options.topology = topology_.get();
  store_ = std::make_unique<SnapshotStore>(store_options);
  fabric_ = std::make_unique<IpcFabric>(
      sim_, cost_model_.get(), options_.server.fault_plan,
      options_.server.trace, options_.ipc, topology_.get());
  for (size_t i = 0; i < slots_.size(); ++i) {
    fabric_->AttachReplica(i, &slots_[i].server->runtime());
    WireReplica(i);
  }
  // Arm the fault plan's replica-kill schedule. Kills route through the
  // normal KillReplica path, so with recovery enabled the victims fail over.
  if (options_.server.fault_plan != nullptr) {
    for (const auto& [replica, at] : options_.server.fault_plan->replica_kills()) {
      sim_->ScheduleAt(at, [this, replica = replica] {
        if (replica < slots_.size() && !slots_[replica].dead) {
          (void)KillReplica(replica);
        }
      });
    }
    // Crashes are silent: the process halts and NOTHING is told — only the
    // control plane's missed heartbeats can detect it (the acceptance test
    // for autonomic recovery). Without the control plane a crashed replica
    // simply stays down.
    for (const CrashSpec& spec : options_.server.fault_plan->crashes()) {
      sim_->ScheduleAt(spec.at, [this, spec] {
        (void)CrashReplica(spec.replica, spec.down_for);
      });
    }
  }
  if (options_.ctrl.enabled) {
    // The base cast must happen here, in member context: the inheritance is
    // private (the ClusterControl surface is an implementation detail).
    ctrl_ = std::make_unique<ControlPlane>(
        sim_, static_cast<ClusterControl*>(this), topology_.get(),
        options_.server.fault_plan, options_.server.trace, options_.ctrl);
  }
}

std::unique_ptr<SymphonyServer> SymphonyCluster::BuildReplica(
    size_t index) const {
  ServerOptions server_options = options_.server;
  // Decorrelate per-replica randomness (tool latencies etc.). A readmitted
  // slot rebuilds with the same seeds: determinism is per slot, and the
  // replayed LIPs draw from their own uid-derived streams anyway.
  server_options.runtime.seed = options_.server.runtime.seed + index * 7919;
  server_options.tool_seed = options_.server.tool_seed + index * 104729;
  auto server = std::make_unique<SymphonyServer>(sim_, server_options);
  // Same setup for every incarnation of the slot: a replica rebuilt by
  // readmission (or added by scale-out) must serve the same tools as the
  // original fleet, or replayed/new LIPs would observe a different server.
  if (options_.configure_replica) {
    options_.configure_replica(*server, index);
  }
  return server;
}

void SymphonyCluster::WireReplica(size_t index) {
  SymphonyServer& server = *slots_[index].server;
  server.runtime().set_channel_fabric(fabric_.get(), index);
  // Credit backpressure feeds admission: parked senders on a replica
  // inflate its projected queue delay, steering Submit's reroute tier
  // toward less-congested replicas.
  server.set_backpressure_hook([fabric = fabric_.get(), index] {
    return fabric->BackpressureDelay(index);
  });
  InstallDisaggHook(index);
}

std::vector<uint64_t> SymphonyCluster::HostedLips(size_t index) const {
  const LipRuntime& runtime = slots_[index].server->runtime();
  std::vector<uint64_t> hosted;
  for (const auto& [uid, rec] : records_) {
    // In-flight records still name their old replica, but their journal is
    // already on its way elsewhere (StartReplay re-targets if needed).
    if (rec.replica == index && !rec.done && !rec.in_flight &&
        !runtime.LipDone(rec.lip)) {
      hosted.push_back(uid);
    }
  }
  std::sort(hosted.begin(), hosted.end());
  return hosted;
}

std::vector<uint64_t> SymphonyCluster::StrandedLips() const {
  std::vector<uint64_t> stranded;
  for (const auto& [uid, rec] : records_) {
    if (!rec.done && !rec.in_flight && slots_[rec.replica].dead) {
      stranded.push_back(uid);
    }
  }
  std::sort(stranded.begin(), stranded.end());
  return stranded;
}

bool SymphonyCluster::Placeable(size_t index) const {
  return !slots_[index].dead && !slots_[index].draining &&
         !slots_[index].server->runtime().halted();
}

bool SymphonyCluster::Avoided(size_t index) const {
  return ctrl_ != nullptr &&
         ctrl_->Health(index) == ReplicaHealth::kSuspected;
}

size_t SymphonyCluster::Load(size_t index) const {
  return slots_[index].server->runtime().live_lips();
}

std::vector<size_t> SymphonyCluster::PlaceableLoads() const {
  std::vector<size_t> loads(slots_.size(), SIZE_MAX);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (Placeable(i)) {
      loads[i] = Load(i);
    }
  }
  return loads;
}

ReplicaRole SymphonyCluster::RoleOf(size_t index) const {
  return index < slots_.size() ? slots_[index].role : ReplicaRole::kUnified;
}

bool SymphonyCluster::InServePool(size_t index) const {
  return RoleOf(index) != ReplicaRole::kPrefill;
}

template <typename Rank>
size_t SymphonyCluster::Pick(Rank rank) const {
  size_t best = kNoReplica;
  decltype(rank(size_t{0})) best_rank;
  for (size_t i = 0; i < slots_.size(); ++i) {
    auto r = rank(i);
    if (r.has_value() && (!best_rank.has_value() || *r < *best_rank)) {
      best = i;
      best_rank = std::move(r);
    }
  }
  return best;
}

std::optional<std::tuple<bool, bool, size_t>> SymphonyCluster::RouteRank(
    size_t index, size_t order) const {
  // Serve-pool (decode/unified) replicas first, so a decode stream or
  // failover never lands behind a prefill replica's giant prefills; prefill
  // replicas are better than nothing when the whole serve pool is down.
  // Within a pool, replicas the control plane suspects lose to healthy ones
  // but remain better than nothing. A role-less, detector-less cluster
  // ranks by `order` alone.
  if (!Placeable(index)) {
    return std::nullopt;
  }
  return std::tuple{!InServePool(index), Avoided(index), order};
}

size_t SymphonyCluster::LeastLoaded() const {
  return Pick([this](size_t i) { return RouteRank(i, Load(i)); });
}

size_t SymphonyCluster::FirstLiveFrom(size_t preferred) const {
  size_t n = slots_.size();
  return Pick([&](size_t i) { return RouteRank(i, (i + n - preferred) % n); });
}

size_t SymphonyCluster::ClosestLeastPlanned(const std::vector<size_t>& planned,
                                            size_t from) const {
  // Equal planned load breaks toward the replica closest to `from` (an
  // intra-rack move ships its journal without crossing the uplink); the
  // uniform single-switch topology keeps the lowest-index pick.
  using Rank = std::optional<std::pair<size_t, SimDuration>>;
  return Pick([&](size_t i) -> Rank {
    if (planned[i] == SIZE_MAX) {
      return std::nullopt;
    }
    return std::pair{planned[i], topology_->Distance(from, i)};
  });
}

size_t SymphonyCluster::RouteFor(const std::string& affinity_key) const {
  return RouteFor(affinity_key, 0);
}

size_t SymphonyCluster::RouteFor(const std::string& affinity_key,
                                 uint64_t prefill_hint_tokens) const {
  // A fresh launch that will prefill a large context goes to the least
  // loaded healthy prefill replica. Everything else — decode streams, small
  // jobs, hint-less launches — routes through the normal policy, which
  // avoids prefill replicas (see LeastLoaded/FirstLiveFrom).
  if (prefill_hint_tokens >= options_.disagg_min_prefill_tokens) {
    size_t pick = Pick([this](size_t i) -> std::optional<size_t> {
      if (RoleOf(i) != ReplicaRole::kPrefill || !Placeable(i) || Avoided(i)) {
        return std::nullopt;
      }
      return Load(i);
    });
    if (pick != kNoReplica) {
      ++counters_.disagg_prefill_routes;
      return pick;
    }
  }
  size_t n = slots_.size();
  size_t pick = kNoReplica;
  switch (options_.routing) {
    case RoutingPolicy::kRoundRobin:
      pick = FirstLiveFrom(next_round_robin_);
      break;
    case RoutingPolicy::kLeastLoaded:
      pick = LeastLoaded();
      break;
    case RoutingPolicy::kCacheAffinity:
    case RoutingPolicy::kAffinityBounded:
      if (affinity_key.empty()) {
        pick = LeastLoaded();
        break;
      }
      pick = FirstLiveFrom(static_cast<size_t>(Fnv1a(affinity_key) % n));
      if (options_.routing == RoutingPolicy::kAffinityBounded &&
          pick != kNoReplica) {
        LoadTotals totals = Totals(PlaceableLoads());
        double average = static_cast<double>(totals.lips + 1) /
                         static_cast<double>(totals.placeable);
        if (static_cast<double>(Load(pick) + 1) >
            options_.load_factor * average) {
          // Hot key: the preferred replica is over its bound.
          ++counters_.overflow_events;
          pick = LeastLoaded();
        }
      }
      break;
  }
  // With nothing placeable at all, routing still answers slot 0; a launch
  // there never runs, like everything else on the halted cluster.
  assert(pick != kNoReplica && "no live replica");
  if (pick == kNoReplica) {
    pick = 0;
  }
  if (options_.routing == RoutingPolicy::kRoundRobin) {
    next_round_robin_ = (pick + 1) % n;
  }
  return pick;
}

std::function<void(LipId)> SymphonyCluster::MakeOnExit(uint64_t uid) {
  return [this, uid](LipId lip) {
    auto it = records_.find(uid);
    if (it == records_.end()) {
      return;
    }
    LipRecord& rec = it->second;
    rec.done = true;
    // Cache the output: the hosting slot may be rebuilt by readmission after
    // this LIP is gone, and Output() must keep answering.
    rec.output = slots_[rec.replica].server->runtime().Output(lip);
    // The journal's life is over: drop its checkpoint's store reference.
    if (rec.journal != nullptr && rec.journal->checkpoint_key() != 0) {
      (void)store_->Release(rec.journal->checkpoint_key());
      rec.journal->AbandonCheckpoint();
    }
    if (rec.user_on_exit) {
      rec.user_on_exit(lip);
    }
  };
}

void SymphonyCluster::InstallCheckpointHook(
    const std::shared_ptr<SyscallJournal>& journal, size_t replica) {
  if (!options_.checkpoint_journals) {
    return;
  }
  uint64_t fingerprint = options_.server.model.Fingerprint();
  journal->set_fold_hook(
      [this, replica, fingerprint](SyscallJournal& j) {
        StatusOr<CheckpointOutcome> out =
            CheckpointJournal(*store_, replica, fingerprint, j);
        if (!out.ok()) {
          // Typically a corruption window on the previous checkpoint's
          // chunks: the fold is skipped and the journal stays fatter until
          // the next interval crossing.
          return;
        }
        ++counters_.checkpoints;
        counters_.checkpoint_entries_folded += out->folded_entries;
        if (options_.server.trace != nullptr) {
          options_.server.trace->Instant(
              "store",
              "checkpoint:replica" + std::to_string(replica) + ":" +
                  std::to_string(out->folded_entries) + "entries",
              sim_->now());
        }
      },
      options_.checkpoint_interval);
}

void SymphonyCluster::InstallDisaggHook(size_t index) {
  if (RoleOf(index) != ReplicaRole::kPrefill || !options_.enable_recovery) {
    return;
  }
  slots_[index].server->scheduler().set_prefill_complete_hook(
      [this, index](LipId lip, uint64_t context_tokens) {
        // Map the runtime LIP back to its cluster record; the handoff runs
        // one dispatch later so the pred result settles into its coroutine
        // frame (and its journal entry) before the LIP is detached.
        for (const auto& [uid, rec] : records_) {
          if (rec.replica == index && rec.lip == lip && !rec.done &&
              !rec.in_flight) {
            sim_->ScheduleAt(sim_->now(),
                             [this, uid = uid, context_tokens] {
                               MaybeHandoff(uid, context_tokens);
                             });
            return;
          }
        }
      });
}

void SymphonyCluster::MaybeHandoff(uint64_t uid, uint64_t context_tokens) {
  auto it = records_.find(uid);
  if (it == records_.end()) {
    return;
  }
  LipRecord& rec = it->second;
  if (rec.done || rec.in_flight || slots_[rec.replica].dead ||
      RoleOf(rec.replica) != ReplicaRole::kPrefill) {
    return;
  }
  if (context_tokens < options_.disagg_min_prefill_tokens ||
      // Ship-vs-local-decode: migrating replays the LIP on the target from
      // its journal, importing the prefilled KV when the Replayer's cost
      // model says the shipped bytes beat recomputing the prefill there.
      // When even the import loses to recompute, the hop buys nothing and
      // the LIP decodes where it is.
      Replayer::Choose(*cost_model_, context_tokens) !=
          RecoveryMode::kImportSnapshot) {
    ++counters_.disagg_handoff_skips;
    return;
  }
  // Least-loaded healthy serve-pool target (never another prefill slot).
  size_t target = Pick([&](size_t i) -> std::optional<size_t> {
    if (i == rec.replica || !Placeable(i) || !InServePool(i) || Avoided(i)) {
      return std::nullopt;
    }
    return Load(i);
  });
  if (target == kNoReplica) {
    ++counters_.disagg_handoff_skips;
    return;
  }
  // Publish the prefilled KV through the snapshot store now, so the ship is
  // a checkpoint reference plus a thin live suffix instead of the raw pred
  // log (the target pulls the chunks over the topology either way).
  if (options_.checkpoint_journals && rec.journal != nullptr &&
      rec.journal->live_entries() > 0) {
    StatusOr<CheckpointOutcome> folded = CheckpointJournal(
        *store_, rec.replica, options_.server.model.Fingerprint(),
        *rec.journal);
    if (folded.ok()) {
      ++counters_.checkpoints;
      counters_.checkpoint_entries_folded += folded->folded_entries;
    }
    // A corruption-window failure just means a fatter (full) ship below.
  }
  ClusterLip id{rec.replica, rec.lip, uid};
  if (Migrate(id, target).ok()) {
    ++counters_.disagg_handoffs;
    if (options_.server.trace != nullptr) {
      options_.server.trace->Instant(
          "recovery", "handoff:" + rec.name + ":replica" +
                          std::to_string(id.replica) + "->replica" +
                          std::to_string(target) + ":" +
                          std::to_string(context_tokens) + "tok",
          sim_->now());
    }
  } else {
    ++counters_.disagg_handoff_skips;
  }
}

SymphonyCluster::ClusterLip SymphonyCluster::Launch(
    std::string name, const std::string& affinity_key, LipProgram program,
    std::function<void(LipId)> on_exit) {
  return Launch(std::move(name), affinity_key, 0, std::move(program),
                std::move(on_exit));
}

SymphonyCluster::ClusterLip SymphonyCluster::Launch(
    std::string name, const std::string& affinity_key,
    uint64_t prefill_hint_tokens, LipProgram program,
    std::function<void(LipId)> on_exit) {
  size_t replica = RouteFor(affinity_key, prefill_hint_tokens);
  ++slots_[replica].launched;
  if (!options_.enable_recovery) {
    LipId lip = slots_[replica].server->Launch(
        std::move(name), std::move(program), std::move(on_exit));
    if (ctrl_ != nullptr) {
      ctrl_->Kick();  // New work: (re)arm heartbeat/sweep/scaling chains.
    }
    return ClusterLip{replica, lip, 0};
  }
  uint64_t uid = next_uid_++;
  LipRecord& rec = records_[uid];
  rec.uid = uid;
  rec.name = name;
  rec.program = program;  // Keep a copy for relaunch.
  rec.user_on_exit = std::move(on_exit);
  rec.replica = replica;
  rec.journal = std::make_shared<SyscallJournal>();
  // Replica-independent seed: a replayed LIP must re-draw the identical RNG
  // stream on any replica, so the seed is derived from the cluster-wide uid
  // rather than the replica's decorrelated runtime seed.
  uint64_t seed =
      Mix64(options_.server.runtime.seed ^ (0x5eedULL + uid * 0x9e3779b9ULL));
  LipRuntime& runtime = slots_[replica].server->runtime();
  rec.lip = runtime.LaunchWithSeed(std::move(name), seed, std::move(program),
                                   MakeOnExit(uid));
  runtime.EnableJournal(rec.lip, rec.journal);
  InstallCheckpointHook(rec.journal, replica);
  if (ctrl_ != nullptr) {
    // AFTER the record lands: Kick is gated on ControlHasWork, and this
    // launch may be the first work the cluster has seen.
    ctrl_->Kick();
  }
  return ClusterLip{replica, rec.lip, uid};
}

SymphonyCluster::ClusterAdmitResult SymphonyCluster::Submit(
    SymphonyServer::LaunchSpec spec, const std::string& affinity_key) {
  size_t preferred = RouteFor(affinity_key, spec.prefill_hint_tokens);
  // Candidate order: the routed replica first, then (with reroute enabled)
  // the other placeable replicas from least to most loaded, with
  // control-plane-suspected replicas demoted to the very end.
  std::vector<size_t> candidates{preferred};
  if (options_.reroute_on_reject) {
    // (suspected, live lips, replica)
    std::vector<std::tuple<bool, size_t, size_t>> rest;
    std::vector<size_t> loads = PlaceableLoads();
    for (size_t i = 0; i < slots_.size(); ++i) {
      // Prefill-role replicas never serve as reroute fallbacks: rerouted
      // work is by definition not a routed large prefill.
      if (i == preferred || loads[i] == SIZE_MAX || !InServePool(i)) {
        continue;
      }
      rest.emplace_back(Avoided(i), loads[i], i);
    }
    std::sort(rest.begin(), rest.end());
    for (const auto& [avoided, load, i] : rest) {
      candidates.push_back(i);
    }
  }
  ClusterAdmitResult shed;
  shed.replica = preferred;
  shed.result.retry_after = 0;
  for (size_t c : candidates) {
    // LaunchSpec is copyable (LipProgram re-invokes); keep ours for the
    // next candidate.
    SymphonyServer::AdmitResult result = slots_[c].server->Submit(spec);
    if (result.status.ok()) {
      ++slots_[c].launched;
      ClusterAdmitResult out;
      out.result = std::move(result);
      out.replica = c;
      out.rerouted = c != preferred;
      if (out.rerouted) {
        ++counters_.submit_reroutes;
      }
      if (ctrl_ != nullptr) {
        // AFTER the admit/queue landed: Kick is gated on ControlHasWork and
        // this may be the cluster's first work.
        ctrl_->Kick();
      }
      return out;
    }
    // Remember the gentlest backpressure hint across the rejections.
    if (shed.result.retry_after == 0 ||
        (result.retry_after > 0 &&
         result.retry_after < shed.result.retry_after)) {
      shed.result = std::move(result);
      shed.replica = c;
    }
  }
  ++counters_.submit_sheds;
  return shed;
}

void SymphonyCluster::ReplayOnto(LipRecord& rec, size_t target) {
  // Replay from a copy: late completions on the old replica may still append
  // to the original journal, and the new incarnation records into its own.
  auto journal = std::make_shared<SyscallJournal>(*rec.journal);
  // The copy inherits the checkpoint's store reference; neuter the original
  // so a straggler fold on the abandoned incarnation can't double-own it.
  rec.journal->set_fold_hook(nullptr, 0);
  rec.journal->AbandonCheckpoint();
  rec.journal = journal;
  rec.in_flight = true;
  ShipJournal(rec.uid, target, std::move(journal));
}

void SymphonyCluster::ShipJournal(uint64_t uid, size_t target,
                                  std::shared_ptr<SyscallJournal> journal) {
  auto it = records_.find(uid);
  if (it == records_.end() || it->second.done) {
    return;
  }
  size_t source = it->second.replica;
  // A down link with no surviving route: hold the shipment and retry, the
  // same surfacing as a corrupted rehydrate. The journal bytes sit at the
  // source until a path exists.
  if (!topology_->Routable(source, target, sim_->now())) {
    sim_->ScheduleAfter(Millis(2), [this, uid, target, journal] {
      ShipJournal(uid, target, journal);
    });
    return;
  }
  // Measure the live suffix BEFORE rehydration turns the folded prefix back
  // into live entries.
  uint64_t suffix_bytes = JournalLiveBytes(*journal);
  bool had_checkpoint = journal->folded_entries() > 0;
  SimDuration fetch_time = 0;
  if (had_checkpoint) {
    // The target pulls the checkpoint from the store (paying interconnect
    // only for chunks it doesn't already cache) so the full log exists for
    // replay. A corruption window fails the fetch — retry shortly; the
    // verified chunks never reach the journal.
    StatusOr<RehydrateOutcome> fetch =
        RehydrateJournal(*store_, target, *journal);
    if (!fetch.ok()) {
      ++counters_.rehydrate_retries;
      sim_->ScheduleAfter(Millis(2), [this, uid, target, journal] {
        ShipJournal(uid, target, journal);
      });
      return;
    }
    fetch_time = fetch->transfer_time;
  }
  bool delta = had_checkpoint && options_.delta_migration;
  // Delta ships only the live suffix over the wire (the prefix came out of
  // the store above); full ships the whole serialized log and the store
  // fetch was just the local mechanism, so only the wire bytes are charged.
  uint64_t ship = delta ? suffix_bytes : JournalLiveBytes(*journal);
  // The suffix rides the topology's links from the source, occupying them
  // against concurrent IPC. The checkpoint fetch above already occupies its
  // own routes (queueing against this ship where they share a link), so a
  // delta waits for whichever of the two racing streams lands last — not
  // their sum.
  SimDuration wire = topology_->Transfer(source, target, ship,
                                         "ship:" + it->second.name) -
                     sim_->now();
  SimDuration delay = delta ? std::max(wire, fetch_time) : wire;
  counters_.ship_bytes += ship;
  if (delta) {
    ++counters_.delta_ships;
  } else {
    ++counters_.full_ships;
  }
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "store", std::string(delta ? "delta-ship:" : "full-ship:") +
                     it->second.name + ":" + std::to_string(ship) + "B",
        sim_->now());
  }
  sim_->ScheduleAfter(delay, [this, uid, target, journal] {
    StartReplay(uid, target, journal);
  });
}

void SymphonyCluster::StartReplay(uint64_t uid, size_t target,
                                  std::shared_ptr<SyscallJournal> journal) {
  auto it = records_.find(uid);
  if (it == records_.end()) {
    return;
  }
  LipRecord& rec = it->second;
  if (rec.done) {
    rec.in_flight = false;
    return;
  }
  if (!Placeable(target)) {
    // The target died (or started draining / crashed) while the journal was
    // in flight; divert to a survivor (the journal bytes already moved — no
    // second shipping charge).
    target = LeastLoaded();
    if (target == kNoReplica) {
      rec.in_flight = false;
      return;
    }
  }
  // Capture the stale placement before overwriting: the fabric forwards any
  // channel homed at the old incarnation to wherever the replay landed.
  size_t old_replica = rec.replica;
  LipId old_lip = rec.lip;
  ReplayOutcome outcome = Replayer::Replay(
      slots_[target].server->runtime(), *cost_model_, &options_.server.model,
      journal, rec.program, options_.recovery_mode, MakeOnExit(uid));
  fabric_->RehomeEndpoint(old_replica, old_lip, target, outcome.lip);
  rec.replica = target;
  rec.lip = outcome.lip;
  rec.in_flight = false;
  InstallCheckpointHook(journal, target);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "restore:" + rec.name + "@replica" +
                        std::to_string(target) + ":" +
                        RecoveryModeName(outcome.mode),
        sim_->now());
  }
}

Status SymphonyCluster::KillReplica(size_t index) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  if (slots_[index].dead) {
    return FailedPreconditionError("replica " + std::to_string(index) +
                                   " already dead");
  }
  // Manual kills are permanent: the slot is retired (never readmitted) and
  // the control plane is told so it stops monitoring instead of burning a
  // detection window discovering what the caller already knows.
  slots_[index].retired = true;
  if (ctrl_ != nullptr) {
    ctrl_->NoteManualDeath(index);
  }
  return FailReplica(index);
}

Status SymphonyCluster::FailReplica(size_t index) {
  if (slots_[index].dead) {
    return Status::Ok();  // ControlFailover after a manual kill raced: done.
  }
  slots_[index].dead = true;
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant("recovery",
                                   "kill:replica" + std::to_string(index),
                                   sim_->now());
  }
  // Collect the victims before halting: LipDone() still answers afterwards,
  // but the order keeps this readable. (On the autonomic path the runtime
  // was already halted by the fence — collection only reads.)
  std::vector<uint64_t> victims = HostedLips(index);
  slots_[index].server->runtime().Halt();
  fabric_->MarkReplicaDead(index);
  if (!options_.enable_recovery || victims.empty()) {
    return Status::Ok();
  }
  // Spread the victims across survivors by planned load — roles and
  // suspicion are not consulted here, unlike every other placement.
  // IPC-coupled LIPs may land apart: the fabric serves each one's journaled
  // recvs, suppresses its journaled sends, and rehomes its channels at
  // replay time, so they need not re-execute against each other.
  std::vector<size_t> planned = PlaceableLoads();
  for (uint64_t uid : victims) {
    size_t target = ClosestLeastPlanned(planned, index);
    if (target == kNoReplica) {  // Only ever the first victim: no survivor.
      return FailedPreconditionError("no surviving replica to fail over to");
    }
    ++planned[target];
    ReplayOnto(records_[uid], target);
    ++counters_.failovers;
  }
  SYMPHONY_LOG(kInfo) << "replica " << index << " killed; " << victims.size()
                      << " lip journal(s) shipped to survivors";
  return Status::Ok();
}

Status SymphonyCluster::CrashReplica(size_t index, SimDuration down_for) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  Slot& slot = slots_[index];
  if (slot.dead || slot.crashed) {
    return FailedPreconditionError("replica " + std::to_string(index) +
                                   " already down");
  }
  slot.crashed = true;
  slot.heal_at = down_for < 0 ? -1 : sim_->now() + down_for;
  // Silent: the runtime halts (its heartbeats stop with it) but no cluster
  // component is marked dead — detection is the control plane's job.
  slot.server->runtime().Halt();
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant("recovery",
                                   "crash:replica" + std::to_string(index),
                                   sim_->now());
  }
  if (down_for >= 0) {
    sim_->ScheduleAt(slot.heal_at, [this, index] {
      if (ctrl_ != nullptr) {
        ctrl_->NoteReplicaHealed(index);
      }
    });
  }
  return Status::Ok();
}

size_t SymphonyCluster::AddReplica() {
  size_t index = ControlAddReplica();
  if (index != kNoReplica && ctrl_ != nullptr) {
    ctrl_->NoteReplicaAdded(index);
  }
  return index;
}

Status SymphonyCluster::DrainReplica(size_t index) {
  if (index >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(index));
  }
  if (!options_.enable_recovery) {
    return FailedPreconditionError("drain requires enable_recovery");
  }
  if (!ControlStartDrain(index)) {
    return FailedPreconditionError(
        "replica " + std::to_string(index) +
        " cannot drain (not serving, or no other placeable replica)");
  }
  if (ctrl_ != nullptr) {
    ctrl_->NoteDrainStarted(index);  // The sweep completes the detach.
  } else {
    PollDrain(index);
  }
  return Status::Ok();
}

void SymphonyCluster::PollDrain(size_t index) {
  // Manual drains without a control plane finish through this small chain;
  // it dies with the draining flag, so Simulator::Run still terminates.
  if (!slots_[index].draining) {
    return;
  }
  if (!ControlDrainComplete(index)) {
    sim_->ScheduleAfter(Millis(5), [this, index] { PollDrain(index); });
  }
}

// ---- ClusterControl (src/ctrl) -----------------------------------------

size_t SymphonyCluster::ControlReplicaCount() const { return slots_.size(); }

bool SymphonyCluster::ControlBeating(size_t replica) const {
  if (replica >= slots_.size()) {
    return false;
  }
  const Slot& slot = slots_[replica];
  return !slot.dead && !slot.crashed && !slot.fenced &&
         !slot.server->runtime().halted();
}

bool SymphonyCluster::ControlHasWork() const {
  for (const auto& entry : records_) {
    if (!entry.second.done) {
      return true;  // Includes LIPs stranded on a crashed replica.
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].draining) {
      return true;
    }
    if (Placeable(i) && (Load(i) > 0 ||
                         slots_[i].server->admission_queue_depth() > 0)) {
      return true;
    }
  }
  return false;
}

SimTime SymphonyCluster::ControlHealAt(size_t replica) const {
  if (slots_[replica].retired) {
    return -1;  // Manual kill / detached drain: permanent.
  }
  if (slots_[replica].crashed) {
    return slots_[replica].heal_at;  // -1 when the crash never heals.
  }
  return 0;  // Fence-only (false suspicion): the process never went away.
}

void SymphonyCluster::ControlFence(size_t replica, uint64_t epoch) {
  // Halt + refusal at every shared surface BEFORE any LIP is re-executed
  // elsewhere: the old incarnation must be provably inert.
  slots_[replica].server->runtime().Halt();
  fabric_->FenceReplica(replica, epoch);
  store_->SetReplicaFenced(replica, true);
  slots_[replica].fenced = true;
}

void SymphonyCluster::ControlFailover(size_t replica) {
  (void)FailReplica(replica);  // Counts one failover per victim LIP.
}

bool SymphonyCluster::ControlReadmit(size_t replica, uint64_t epoch) {
  Slot& slot = slots_[replica];
  if (slot.retired || !slot.dead) {
    return false;
  }
  if (slot.crashed && (slot.heal_at < 0 || slot.heal_at > sim_->now())) {
    return false;  // Process still down.
  }
  // Collect stranded LIPs while this slot is still marked dead: a failover
  // that found no placeable survivor (everyone fenced by a symmetric
  // partition) left their records behind, and the readmitted replica is the
  // first capacity able to rescue them.
  std::vector<uint64_t> stranded = StrandedLips();
  // The old incarnation's state is gone; rebuild the slot fresh (keeping
  // its role and launch count). The old server object is parked, not
  // destroyed — pending simulator events may still name its halted runtime.
  retired_servers_.push_back(std::move(slot.server));
  slot = Slot{BuildReplica(replica), slot.role, slot.launched};
  fabric_->ReviveReplica(replica, &slot.server->runtime());
  WireReplica(replica);
  store_->SetReplicaFenced(replica, false);
  store_->ForgetReplica(replica);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "readmit:replica" + std::to_string(replica) + "@epoch" +
                        std::to_string(epoch),
        sim_->now());
  }
  for (uint64_t uid : stranded) {
    ReplayOnto(records_[uid], replica);
    ++counters_.failovers;
  }
  return true;
}

size_t SymphonyCluster::ControlAddReplica() {
  // Role-aware scale-out: in a disaggregated cluster the new capacity joins
  // the hotter pool — worst projected admission delay first, total live LIPs
  // as the tie-break — so a prefill backlog grows the prefill pool instead
  // of adding a decode replica that never sees the queued work. A role-less
  // cluster always adds kUnified (the legacy behavior).
  ReplicaRole role = ReplicaRole::kUnified;
  if (std::any_of(slots_.begin(), slots_.end(), [](const Slot& slot) {
        return slot.role == ReplicaRole::kPrefill;
      })) {
    SimDuration prefill_delay = 0;
    SimDuration serve_delay = 0;
    size_t prefill_lips = 0;
    size_t serve_lips = 0;
    std::vector<size_t> loads = PlaceableLoads();
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (loads[i] == SIZE_MAX) {
        continue;
      }
      SimDuration delay = slots_[i].server->ProjectedAdmissionDelay();
      if (InServePool(i)) {
        serve_delay = std::max(serve_delay, delay);
        serve_lips += loads[i];
      } else {
        prefill_delay = std::max(prefill_delay, delay);
        prefill_lips += loads[i];
      }
    }
    if (std::tie(prefill_delay, prefill_lips) >
        std::tie(serve_delay, serve_lips)) {
      role = ReplicaRole::kPrefill;
    }
  }
  size_t index = topology_->AddReplica();
  assert(index == slots_.size());
  slots_.push_back(Slot{BuildReplica(index), role});
  fabric_->AttachReplica(index, &slots_[index].server->runtime());
  WireReplica(index);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery",
        "scale-out:replica" + std::to_string(index) +
            (role == ReplicaRole::kPrefill ? ":prefill" : ":serve"),
        sim_->now());
  }
  // Fresh capacity rescues any LIPs stranded by a survivor-less failover.
  for (uint64_t uid : StrandedLips()) {
    ReplayOnto(records_[uid], index);
    ++counters_.failovers;
  }
  return index;
}

bool SymphonyCluster::ControlStartDrain(size_t replica) {
  // The replica must be serving, and another one must be able to take its
  // LIPs.
  if (!options_.enable_recovery || replica >= slots_.size() ||
      !Placeable(replica) || Totals(PlaceableLoads()).placeable < 2) {
    return false;
  }
  slots_[replica].draining = true;  // Placement stops at once.
  DrainStep(replica);
  return true;
}

void SymphonyCluster::DrainStep(size_t index) {
  for (uint64_t uid : HostedLips(index)) {
    LipRecord& rec = records_[uid];
    ClusterLip id{rec.replica, rec.lip, uid};
    (void)Migrate(id, LeastLoaded());
  }
}

bool SymphonyCluster::ControlDrainComplete(size_t replica) {
  Slot& slot = slots_[replica];
  if (!slot.draining) {
    return false;
  }
  DrainStep(replica);  // Retry stragglers (e.g. a target that went away).
  for (const auto& entry : records_) {
    const LipRecord& rec = entry.second;
    // In-flight journals still name this replica until their replay lands.
    if (rec.replica == replica && !rec.done) {
      return false;
    }
  }
  if (Load(replica) > 0 || slot.server->admission_queue_depth() > 0) {
    return false;  // Untracked (non-recovery or admission-queued) work left.
  }
  slot.draining = false;
  slot.dead = true;
  slot.retired = true;  // A detached slot is never readmitted.
  slot.server->runtime().Halt();
  fabric_->MarkReplicaDead(replica);
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "scale-in:replica" + std::to_string(replica), sim_->now());
  }
  return true;
}

ClusterControl::LoadSignal SymphonyCluster::ControlLoadSignal() const {
  LoadSignal sig;
  sig.sheds = counters_.submit_sheds;
  sig.lips = PlaceableLoads();  // SIZE_MAX is kNoReplica: not serving.
  LoadTotals totals = Totals(sig.lips);
  sig.serving = totals.placeable;
  sig.live_lips = totals.lips;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (sig.lips[i] != SIZE_MAX) {
      sig.queued += slots_[i].server->admission_queue_depth();
      sig.worst_delay = std::max(sig.worst_delay,
                                 slots_[i].server->ProjectedAdmissionDelay());
    }
  }
  return sig;
}

Status SymphonyCluster::Migrate(const ClusterLip& id, size_t to_replica) {
  if (!options_.enable_recovery) {
    return FailedPreconditionError("migration requires enable_recovery");
  }
  auto it = records_.find(id.uid);
  if (it == records_.end()) {
    return NotFoundError("unknown lip uid " + std::to_string(id.uid));
  }
  LipRecord& rec = it->second;
  if (to_replica >= slots_.size()) {
    return InvalidArgumentError("no replica " + std::to_string(to_replica));
  }
  if (!Placeable(to_replica)) {
    return FailedPreconditionError("target replica is not placeable");
  }
  if (slots_[rec.replica].dead) {
    return FailedPreconditionError("source replica is dead");
  }
  if (to_replica == rec.replica) {
    return InvalidArgumentError("lip already on replica " +
                                std::to_string(to_replica));
  }
  if (rec.in_flight) {
    return FailedPreconditionError("lip migration already in flight");
  }
  LipRuntime& source = slots_[rec.replica].server->runtime();
  if (rec.done || source.LipDone(rec.lip)) {
    return FailedPreconditionError("lip already finished");
  }
  SYMPHONY_RETURN_IF_ERROR(source.Detach(rec.lip));
  if (options_.server.trace != nullptr) {
    options_.server.trace->Instant(
        "recovery", "migrate:" + rec.name + ":replica" +
                        std::to_string(rec.replica) + "->replica" +
                        std::to_string(to_replica),
        sim_->now());
  }
  ReplayOnto(rec, to_replica);
  ++counters_.migrations;
  return Status::Ok();
}

size_t SymphonyCluster::Rebalance() {
  if (!options_.enable_recovery) {
    return 0;
  }
  std::vector<size_t> loads = PlaceableLoads();
  LoadTotals totals = Totals(loads);
  if (totals.placeable < 2) {
    return 0;
  }
  // A replica above load_factor x the live average sheds its lowest-uid
  // LIPs to the emptiest replica — but only moves that strictly improve
  // balance (target + 1 < source on the planned loads). Without that guard
  // a single straggler ping-pongs between replicas forever, each migration
  // restarting it before it can finish.
  double average = static_cast<double>(totals.lips) /
                   static_cast<double>(totals.placeable);
  double bound = options_.load_factor * average;
  std::vector<size_t> planned = loads;  // SIZE_MAX marks unusable replicas.
  std::vector<std::pair<uint64_t, size_t>> moves;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (loads[i] == SIZE_MAX || static_cast<double>(loads[i]) <= bound) {
      continue;
    }
    for (uint64_t uid : HostedLips(i)) {
      // Same pick as failover: the closest of the least-planned replicas
      // (a tie with the source itself means no move improves balance).
      size_t target = ClosestLeastPlanned(planned, i);
      if (target == i || planned[target] + 1 >= planned[i] ||
          static_cast<double>(planned[i]) <= bound) {
        break;
      }
      moves.emplace_back(uid, target);
      --planned[i];
      ++planned[target];
    }
  }
  size_t moved = 0;
  for (const auto& [uid, target] : moves) {
    auto it = records_.find(uid);
    if (it == records_.end()) {
      continue;
    }
    ClusterLip id{it->second.replica, it->second.lip, uid};
    if (Migrate(id, target).ok()) {
      ++moved;
    }
  }
  return moved;
}

void SymphonyCluster::ScheduleRebalance(SimDuration period) {
  sim_->ScheduleAfter(period, [this, period] {
    Rebalance();
    // Keep the chain alive only while there is work, so Simulator::Run
    // still terminates once the cluster drains.
    if (Totals(PlaceableLoads()).lips > 0) {
      ScheduleRebalance(period);
    }
  });
}

void SymphonyCluster::StartAutoRebalance(SimDuration period) {
  assert(period > 0);
  ScheduleRebalance(period);
}

size_t SymphonyCluster::SharePrefixes() {
  size_t warmed = 0;
  uint64_t fingerprint = options_.server.model.Fingerprint();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!Placeable(i)) {
      continue;
    }
    Kvfs& kvfs = slots_[i].server->kvfs();
    // Only named files can be shared. Visit them in FileId order: publish
    // and import order feed store dedup and event ties.
    std::vector<KvFileInfo> named;
    for (const std::string& path : kvfs.List("")) {
      named.push_back(*kvfs.StatPath(path));
    }
    std::sort(named.begin(), named.end(),
              [](const KvFileInfo& a, const KvFileInfo& b) { return a.id < b.id; });
    for (const KvFileInfo& info : named) {
      if (info.opens_total < options_.share_min_opens ||
          info.length < options_.share_min_tokens) {
        continue;
      }
      auto shared = shared_prefixes_.find(info.path);
      if (shared != shared_prefixes_.end() &&
          shared->second.tokens >= info.length) {
        continue;  // Already published at this length or longer.
      }
      // The Replayer's cost model has the final say: a prefix whose PCIe
      // import costs more than one recompute prefill isn't worth sharing.
      if (Replayer::Choose(*cost_model_, info.length) !=
          RecoveryMode::kImportSnapshot) {
        ++counters_.warm_skips_cost;
        continue;
      }
      OpenOptions open;
      open.requester = kAdminLip;
      open.read = true;
      StatusOr<KvHandle> handle = kvfs.Open(info.path, open);
      if (!handle.ok()) {
        continue;  // E.g. exclusively locked; try again next pass.
      }
      StatusOr<KvFileSnapshot> snap = kvfs.ExportSnapshot(*handle);
      (void)kvfs.Close(*handle);
      if (!snap.ok()) {
        continue;
      }
      SnapshotPayload payload;
      payload.label = "kvfs:" + info.path;
      payload.model_fingerprint = fingerprint;
      payload.tokens = info.length;
      payload.streams.emplace_back("records",
                                   SerializeTokenRecords(snap->records));
      PublishResult published = store_->Publish(i, payload);
      ++counters_.prefix_publishes;
      if (shared != shared_prefixes_.end()) {
        if (shared->second.key != published.key) {
          (void)store_->Release(shared->second.key);
          shared->second.key = published.key;
        } else {
          (void)store_->Release(published.key);  // Same content: extra ref.
        }
        shared->second.tokens = info.length;
      } else {
        shared_prefixes_[info.path] = SharedPrefix{published.key, info.length};
      }
      // Warm every live replica that lacks the path. The file materializes
      // after the fetched bytes' interconnect time.
      for (size_t j = 0; j < slots_.size(); ++j) {
        if (j == i || !Placeable(j) ||
            slots_[j].server->kvfs().Exists(info.path)) {
          continue;
        }
        StatusOr<FetchResult> fetch = store_->Fetch(j, published.key);
        if (!fetch.ok()) {
          // Corruption window: the import is abandoned — the replica falls
          // back to recomputing the prefix when it needs it.
          ++counters_.warm_corrupt_fallbacks;
          continue;
        }
        StatusOr<std::vector<TokenRecord>> records =
            ParseTokenRecords(fetch->streams[0].second);
        if (!records.ok()) {
          ++counters_.warm_corrupt_fallbacks;
          continue;
        }
        auto import = std::make_shared<KvFileSnapshot>();
        import->path = info.path;
        import->mode = snap->mode;
        import->records = std::move(*records);
        ++counters_.warm_imports;
        counters_.warm_import_tokens += info.length;
        ++warmed;
        sim_->ScheduleAfter(fetch->transfer_time, [this, j, import] {
          if (Placeable(j)) {
            (void)slots_[j].server->ImportNamedSnapshot(*import);
          }
        });
      }
    }
  }
  return warmed;
}

SymphonyCluster::ClusterLip SymphonyCluster::Locate(
    const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it == records_.end()) {
    return id;
  }
  return ClusterLip{it->second.replica, it->second.lip, id.uid};
}

const std::string& SymphonyCluster::Output(const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it != records_.end() && it->second.done) {
    // Served from the record: the hosting slot may have been rebuilt by
    // readmission since the LIP finished.
    return it->second.output;
  }
  ClusterLip where = Locate(id);
  return slots_[where.replica].server->runtime().Output(where.lip);
}

bool SymphonyCluster::Done(const ClusterLip& id) const {
  auto it = records_.find(id.uid);
  if (it != records_.end()) {
    return it->second.done;
  }
  return slots_[id.replica].server->runtime().LipDone(id.lip);
}

SymphonyCluster::ClusterSnapshot SymphonyCluster::Snapshot() const {
  ClusterSnapshot snap;
  static_cast<ClusterCounters&>(snap) = counters_;
  SampleSeries queue_waits;  // Merged across replicas for cluster percentiles.
  for (const Slot& slot : slots_) {
    SymphonyServer* replica = slot.server.get();
    snap.lips_per_replica.push_back(slot.launched);
    snap.total_throughput_busy += replica->device().Utilization();
    snap.batches += replica->device().stats().batches;
    snap.lips_completed += replica->runtime().stats().lips_completed;
    snap.lips_replayed += replica->runtime().stats().lips_replayed;
    snap.replay_divergences += replica->runtime().stats().replay_divergences;
    snap.ipc_recvs_replayed += replica->runtime().stats().ipc_recvs_replayed;
    snap.ipc_sends_suppressed +=
        replica->runtime().stats().ipc_sends_suppressed;
    snap.ipc_credit_waits_replayed +=
        replica->runtime().stats().ipc_credit_waits_replayed;
    const InferenceSchedulerStats& sched = replica->scheduler().stats();
    snap.decode_tokens_batched += sched.decode_tokens_batched;
    snap.prefill_tokens_batched += sched.prefill_tokens_batched;
    snap.prefill_chunks += sched.prefill_chunks;
    snap.prefills_chunked += sched.prefills_chunked;
    for (double wait : replica->scheduler().queue_waits_ms().samples()) {
      queue_waits.Add(wait);
    }
    if (slot.dead) {
      ++snap.replicas_dead;
    }
  }
  if (queue_waits.count() > 0) {
    snap.queue_wait_p50_ms = queue_waits.Percentile(0.5);
    snap.queue_wait_p99_ms = queue_waits.Percentile(0.99);
  }
  for (size_t i = 0; i < fabric_->replica_count(); ++i) {
    const IpcReplicaStats& ipc = fabric_->replica_stats(i);
    snap.ipc_sent += ipc.sent;
    snap.ipc_received += ipc.received;
    snap.ipc_forwarded += ipc.forwarded;
    snap.ipc_dropped += ipc.dropped;
    snap.ipc_per_replica.push_back(ipc);
  }
  snap.ipc_cross_sends = fabric_->stats().cross_sends;
  snap.ipc_cross_bytes = fabric_->stats().cross_bytes;
  snap.ipc_local_deliveries = fabric_->stats().local_deliveries;
  snap.ipc_partition_retries = fabric_->stats().partition_retries;
  snap.ipc_link_down_retries = fabric_->stats().link_down_retries;
  snap.ipc_rehomes = fabric_->stats().rehomes;
  snap.ipc_credit_waits = fabric_->stats().credit_waits;
  snap.ipc_credit_grants = fabric_->stats().credit_grants;
  snap.ipc_credit_deadlocks = fabric_->stats().credit_deadlocks;
  snap.store = store_->stats();
  snap.net_transfers = topology_->stats().transfers;
  snap.net_payload_bytes = topology_->stats().payload_bytes;
  snap.net_multi_hop = topology_->stats().multi_hop_transfers;
  snap.net_reroutes = topology_->stats().reroutes;
  snap.net_link_blocked = topology_->stats().blocked;
  snap.net_links = topology_->LinkReport();
  snap.ipc_fenced_rejections = fabric_->stats().fenced_rejections;
  if (ctrl_ != nullptr) {
    snap.ctrl = ctrl_->stats();
    snap.ctrl_seat = ctrl_->seat();
    for (size_t i = 0; i < slots_.size(); ++i) {
      ClusterSnapshot::ReplicaLiveness row;
      row.state = ctrl_->Health(i);
      row.epoch = ctrl_->Epoch(i);
      row.heartbeat_age = ctrl_->HeartbeatAge(i);
      row.fenced = slots_[i].fenced;
      if (options_.enable_recovery) {
        for (const auto& entry : records_) {
          if (entry.second.replica == i && !entry.second.done) {
            ++row.lips_hosted;
          }
        }
      } else {
        row.lips_hosted = Load(i);
      }
      snap.liveness.push_back(row);
    }
  }
  return snap;
}

}  // namespace symphony
