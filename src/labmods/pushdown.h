// Pushdown LabMod (DESIGN.md §12): executes registered, sandboxed op
// chains at the device-queue layer.
//
// Clients register a ChainProgram (src/ipc/chain.h) with a
// kChainRegister request; a kChainExec request then runs the whole
// chain inside ONE client↔worker round trip — the interpreter rewrites
// the request per step (KVS get/put, raw block read/write) and
// resubmits it downstream via exec.Forward, instead of completing back
// to the client between dependent hops. The mod sits at the top of a
// stack (pushdown → labkvs → … → driver) and passes all non-chain
// requests through untouched, so inserting it costs existing traffic
// nothing.
//
// Crossing accounting: a client-driven N-hop loop pays N round trips;
// a chain pays one. The saved crossings (2 per collapsed hop) and
// their priced cost (kernelsim::LabRoundTripCost) are counted per
// chain and mirrored to telemetry ("pushdown.*" counters).
//
// Upgrade safety: a chain executes entirely inside one dispatch, so an
// in-flight chain holds the runtime's inline-exec quiesce gate (and a
// worker's drain slot) exactly like any single request — upgrades wait
// for chain boundaries, never step boundaries. Re-registering an
// existing chain id requires the namespace epoch to have advanced past
// the epoch the chain was installed in (idempotent re-registration of
// the identical program is always allowed).
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/labmod.h"
#include "core/stack_exec.h"
#include "ipc/chain.h"

namespace labstor::labmods {

class PushdownMod final : public core::LabMod {
 public:
  PushdownMod() : core::LabMod("pushdown", core::ModType::kPushdown, 1) {}

  Status Init(const yaml::NodePtr& params, core::ModContext& ctx) override;
  Status Process(ipc::Request& req, core::StackExec& exec) override;
  Status StateUpdate(core::LabMod& old) override;
  sim::Time EstProcessingTime() const override { return 2 * sim::kUs; }

  // Admin-plane registration (cluster broadcast, tools, tests) — same
  // epoch rules as the IPC path; `epoch` is the caller's view of the
  // namespace epoch (0 = unknown).
  Status Register(const ipc::ChainProgram& program, uint64_t epoch);

  // --- introspection (labstorctl pushdown, tests) ---
  struct ChainInfo {
    uint32_t id = 0;
    uint32_t num_steps = 0;
    bool mutates = false;
    uint64_t registered_epoch = 0;
    uint64_t executions = 0;
    uint64_t steps_executed = 0;
    uint64_t crossings_saved = 0;
    uint64_t saved_ns = 0;
  };
  std::vector<ChainInfo> ListChains() const;  // sorted by chain id
  uint64_t chains_executed() const;
  uint64_t steps_executed() const;
  uint64_t crossings_saved() const;
  uint64_t saved_ns() const;

  // DST hook: invoked after every completed chain step with
  // (chain_id, step index). The crash-point enumerator uses it to
  // record journal high-water marks at each step boundary.
  using StepHook = std::function<void(uint32_t chain_id, uint32_t step)>;
  void SetStepHook(StepHook hook);

 private:
  struct Entry {
    ipc::ChainProgram program;
    uint64_t registered_epoch = 0;
    uint64_t executions = 0;
    uint64_t steps_executed = 0;
    uint64_t crossings_saved = 0;
    uint64_t saved_ns = 0;
  };

  Status DoRegister(ipc::Request& req, core::StackExec& exec);
  Status DoExec(ipc::Request& req, core::StackExec& exec);
  // Forward a txn marker op downstream with the request's data fields
  // parked (the KVS appends the marker record and does not forward).
  Status ForwardMarker(ipc::OpCode op, ipc::Request& req,
                       core::StackExec& exec);

  uint64_t CurrentEpoch() const {
    return ns_epoch_ == nullptr
               ? 0
               : ns_epoch_->load(std::memory_order_acquire);
  }

  const std::atomic<uint64_t>* ns_epoch_ = nullptr;

  mutable std::mutex mu_;
  std::map<uint32_t, Entry> chains_;
  StepHook step_hook_;
  uint64_t chains_executed_ = 0;
  uint64_t steps_executed_ = 0;
  uint64_t crossings_saved_ = 0;
  uint64_t saved_ns_ = 0;
};

}  // namespace labstor::labmods
