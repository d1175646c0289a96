#include "labmods/pushdown.h"

#include <algorithm>

#include "core/module_registry.h"
#include "kernelsim/paths.h"

namespace labstor::labmods {

namespace {

// Chain-private scratch. Steps only ever address [0, byte_budget);
// per-thread so concurrent workers never share interpreter state.
std::vector<uint8_t>& ScratchFor(uint64_t byte_budget) {
  thread_local std::vector<uint8_t> scratch;
  scratch.assign(byte_budget, 0);
  return scratch;
}

}  // namespace

Status PushdownMod::Init(const yaml::NodePtr& params, core::ModContext& ctx) {
  (void)params;
  ns_epoch_ = ctx.ns_epoch;
  return Status::Ok();
}

Status PushdownMod::Process(ipc::Request& req, core::StackExec& exec) {
  switch (req.op) {
    case ipc::OpCode::kChainRegister:
      return DoRegister(req, exec);
    case ipc::OpCode::kChainExec:
      return DoExec(req, exec);
    default:
      // Transparent pass-through: non-chain traffic flows down the
      // stack unchanged (and uncharged — the dispatch branch is noise
      // next to any real op).
      return exec.Forward(req);
  }
}

Status PushdownMod::Register(const ipc::ChainProgram& program, uint64_t epoch) {
  LABSTOR_RETURN_IF_ERROR(program.Validate());
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = chains_.find(program.id);
  if (it != chains_.end()) {
    if (std::memcmp(&it->second.program, &program, sizeof(program)) == 0) {
      return Status::Ok();  // idempotent re-registration
    }
    if (epoch <= it->second.registered_epoch) {
      return Status::FailedPrecondition(
          "chain " + std::to_string(program.id) +
          " already registered in namespace epoch " +
          std::to_string(it->second.registered_epoch) +
          "; replacing it requires a namespace epoch bump (modify/upgrade "
          "the stack first)");
    }
  }
  Entry entry;
  entry.program = program;
  entry.registered_epoch = epoch;
  chains_[program.id] = entry;
  return Status::Ok();
}

Status PushdownMod::DoRegister(ipc::Request& req, core::StackExec& exec) {
  exec.trace().Charge("pushdown", exec.ctx().costs->pushdown_register);
  LABSTOR_ASSIGN_OR_RETURN(program,
                           ipc::DecodeChainProgram(req.data, req.length));
  LABSTOR_RETURN_IF_ERROR(Register(program, CurrentEpoch()));
  telemetry::Telemetry* tel = exec.ctx().telemetry;
  if (tel != nullptr && tel->enabled()) {
    tel->metrics().GetCounter("pushdown.chains.registered")->Inc(req.worker);
  }
  req.result_u64 = program.num_steps;
  return Status::Ok();
}

Status PushdownMod::ForwardMarker(ipc::OpCode op, ipc::Request& req,
                                  core::StackExec& exec) {
  const ipc::OpCode orig_op = req.op;
  const uint64_t orig_offset = req.offset;
  const uint64_t orig_length = req.length;
  uint8_t* const orig_data = req.data;
  req.op = op;
  req.offset = 0;
  req.length = 0;
  req.data = nullptr;
  const Status st = exec.Forward(req);
  req.op = orig_op;
  req.offset = orig_offset;
  req.length = orig_length;
  req.data = orig_data;
  return st;
}

Status PushdownMod::DoExec(ipc::Request& req, core::StackExec& exec) {
  if (req.chain_step != 0) {
    // A fresh submission always starts at step 0. A non-zero cursor
    // means the slot still carries a previous chain's completion
    // framing — a recycled request that skipped Request::Reuse().
    return Status::InvalidArgument(
        "chain_exec submitted with stale step cursor " +
        std::to_string(req.chain_step));
  }
  ipc::ChainProgram program;
  StepHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = chains_.find(req.chain_id);
    if (it == chains_.end()) {
      return Status::NotFound("no registered chain with id " +
                              std::to_string(req.chain_id));
    }
    program = it->second.program;
    hook = step_hook_;
  }

  // Interpreter registers.
  std::vector<uint8_t>& scratch = ScratchFor(program.byte_budget);
  uint64_t scratch_len = 0;
  std::string key(req.GetPath());
  uint64_t cursor = req.offset;

  // The request is rewritten per step and restored at the end; the
  // client sees only the chain-level completion framing.
  const uint64_t orig_offset = req.offset;
  const uint64_t orig_length = req.length;
  uint8_t* const orig_data = req.data;
  const std::string orig_path(req.GetPath());

  const sim::SoftwareCosts& costs = *exec.ctx().costs;
  Status st;
  bool txn_open = false;
  bool filtered = false;
  uint64_t hops = 0;
  uint32_t steps_run = 0;
  for (uint32_t i = 0; i < program.num_steps && !filtered; ++i) {
    exec.trace().Charge("pushdown", costs.pushdown_step);
    const ipc::ChainStep& s = program.steps[i];
    switch (s.kind) {
      case ipc::ChainStepKind::kGet: {
        if (!s.GetKey().empty()) key = std::string(s.GetKey());
        req.op = ipc::OpCode::kGet;
        req.SetPath(key);
        req.offset = 0;
        req.length = program.byte_budget;
        req.data = scratch.data();
        req.result_u64 = 0;
        st = exec.Forward(req);
        if (st.ok()) scratch_len = std::min(req.result_u64, program.byte_budget);
        ++hops;
        break;
      }
      case ipc::ChainStepKind::kDerefKey: {
        const char* base = reinterpret_cast<const char*>(scratch.data()) + s.a;
        size_t n = 0;
        while (n < s.b && base[n] != '\0') ++n;
        key.assign(base, n);
        if (key.empty()) {
          st = Status::InvalidArgument("deref_key produced an empty key at "
                                       "step " + std::to_string(i));
        }
        break;
      }
      case ipc::ChainStepKind::kReadAt: {
        req.op = ipc::OpCode::kBlkRead;
        req.offset = cursor + s.a;
        req.length = s.b;
        req.data = scratch.data();
        st = exec.Forward(req);
        if (st.ok()) scratch_len = s.b;
        ++hops;
        break;
      }
      case ipc::ChainStepKind::kDerefOffset: {
        std::memcpy(&cursor, scratch.data() + s.a, sizeof(uint64_t));
        break;
      }
      case ipc::ChainStepKind::kFilter: {
        uint64_t value = 0;
        std::memcpy(&value, scratch.data() + s.a, sizeof(uint64_t));
        if (value < s.b) filtered = true;  // stop early, success
        break;
      }
      case ipc::ChainStepKind::kModify: {
        uint64_t value = 0;
        std::memcpy(&value, scratch.data() + s.a, sizeof(uint64_t));
        value += s.b;
        std::memcpy(scratch.data() + s.a, &value, sizeof(uint64_t));
        scratch_len = std::max<uint64_t>(scratch_len, s.a + sizeof(uint64_t));
        break;
      }
      case ipc::ChainStepKind::kPut: {
        if (!txn_open) {
          // Crash atomicity: bracket the mutating suffix in journal
          // txn markers so recovery replays it all or not at all.
          st = ForwardMarker(ipc::OpCode::kTxnBegin, req, exec);
          if (!st.ok()) break;
          txn_open = true;
        }
        if (!s.GetKey().empty()) key = std::string(s.GetKey());
        req.op = ipc::OpCode::kPut;
        req.SetPath(key);
        req.offset = 0;
        req.length = scratch_len;
        req.data = scratch.data();
        st = exec.Forward(req);
        ++hops;
        break;
      }
      case ipc::ChainStepKind::kWriteAt: {
        req.op = ipc::OpCode::kBlkWrite;
        req.offset = cursor + s.a;
        req.length = s.b;
        req.data = scratch.data();
        st = exec.Forward(req);
        ++hops;
        break;
      }
      case ipc::ChainStepKind::kInvalid:
        st = Status::Internal("invalid chain step escaped validation");
        break;
    }
    if (!st.ok()) break;
    ++steps_run;
    req.chain_step = static_cast<uint16_t>(steps_run);
    if (hook) hook(program.id, i);
  }
  if (txn_open) {
    if (st.ok()) {
      st = ForwardMarker(ipc::OpCode::kTxnCommit, req, exec);
    } else {
      // Close the transaction so replay stops buffering behind it; the
      // step's error is what the client sees, not the marker's.
      (void)ForwardMarker(ipc::OpCode::kTxnAbort, req, exec);
    }
  }

  // Restore the request and apply the chain-level completion framing.
  req.op = ipc::OpCode::kChainExec;
  req.offset = orig_offset;
  req.length = orig_length;
  req.data = orig_data;
  req.SetPath(orig_path);
  if (st.ok()) {
    const uint64_t copy =
        std::min<uint64_t>(scratch_len, orig_length);
    if (orig_data != nullptr && copy > 0) {
      std::memcpy(orig_data, scratch.data(), copy);
    }
    req.result_u64 = copy;
  }

  // Crossing accounting: the chain collapsed `hops` dependent
  // submissions into this one round trip.
  const uint64_t collapsed = hops > 0 ? hops - 1 : 0;
  const uint64_t crossings = kernelsim::PushdownCrossingsSaved(hops);
  const uint64_t priced = kernelsim::PushdownSavingsNs(costs, hops);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = chains_.find(program.id);
    if (it != chains_.end()) {
      ++it->second.executions;
      it->second.steps_executed += steps_run;
      it->second.crossings_saved += crossings;
      it->second.saved_ns += priced;
    }
    ++chains_executed_;
    steps_executed_ += steps_run;
    crossings_saved_ += crossings;
    saved_ns_ += priced;
  }
  telemetry::Telemetry* tel = exec.ctx().telemetry;
  if (tel != nullptr && tel->enabled()) {
    telemetry::MetricsRegistry& m = tel->metrics();
    m.GetCounter("pushdown.chains.executed")->Inc(req.worker);
    m.GetCounter("pushdown.steps.executed")->Add(steps_run, req.worker);
    m.GetCounter("pushdown.hops.collapsed")->Add(collapsed, req.worker);
    m.GetCounter("pushdown.crossings.saved")->Add(crossings, req.worker);
    m.GetCounter("pushdown.crossings.saved_ns")->Add(priced, req.worker);
  }
  return st;
}

Status PushdownMod::StateUpdate(core::LabMod& old) {
  auto* prev = dynamic_cast<PushdownMod*>(&old);
  if (prev == nullptr) {
    return Status::InvalidArgument("StateUpdate from incompatible mod");
  }
  std::scoped_lock lock(mu_, prev->mu_);
  ns_epoch_ = prev->ns_epoch_;
  chains_ = prev->chains_;
  step_hook_ = prev->step_hook_;
  chains_executed_ = prev->chains_executed_;
  steps_executed_ = prev->steps_executed_;
  crossings_saved_ = prev->crossings_saved_;
  saved_ns_ = prev->saved_ns_;
  return Status::Ok();
}

void PushdownMod::SetStepHook(StepHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  step_hook_ = std::move(hook);
}

std::vector<PushdownMod::ChainInfo> PushdownMod::ListChains() const {
  std::vector<ChainInfo> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(chains_.size());
  for (const auto& [id, entry] : chains_) {
    ChainInfo info;
    info.id = id;
    info.num_steps = entry.program.num_steps;
    info.mutates = entry.program.Mutates();
    info.registered_epoch = entry.registered_epoch;
    info.executions = entry.executions;
    info.steps_executed = entry.steps_executed;
    info.crossings_saved = entry.crossings_saved;
    info.saved_ns = entry.saved_ns;
    out.push_back(info);
  }
  return out;
}

uint64_t PushdownMod::chains_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chains_executed_;
}
uint64_t PushdownMod::steps_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_executed_;
}
uint64_t PushdownMod::crossings_saved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crossings_saved_;
}
uint64_t PushdownMod::saved_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return saved_ns_;
}

LABSTOR_REGISTER_LABMOD("pushdown", 1, PushdownMod);

}  // namespace labstor::labmods
