// StackExec: drives one request through a LabStack's DAG.
//
// Mods receive the exec object and call Forward(req) to hand the
// (possibly rewritten) request to their output vertices. Execution is
// a synchronous call chain — the functional behaviour of both exec
// modes; the *timing* difference between sync and async modes (IPC
// hop vs inline) is charged by the runtime/bench layer around this.
//
// A StackExec is rebindable: workers keep one per thread and Reset()
// it between requests so steady-state execution reuses the call-stack
// storage instead of heap-allocating a fresh exec per request.
#pragma once

#include <vector>

#include "common/status.h"
#include "core/exec_trace.h"
#include "core/labmod.h"
#include "core/stack.h"
#include "ipc/request.h"

namespace labstor::core {

class StackExec {
 public:
  // Unbound exec for per-worker scratch; bind with Reset() before use.
  StackExec() = default;

  StackExec(Stack& stack, ModContext& ctx, ExecTrace& trace)
      : stack_(&stack), ctx_(&ctx), trace_(&trace) {}

  // Rebind to a new (stack, ctx, trace) triple, keeping the call-stack
  // vector's capacity — the zero-allocation reuse path.
  void Reset(Stack& stack, ModContext& ctx, ExecTrace& trace) {
    stack_ = &stack;
    ctx_ = &ctx;
    trace_ = &trace;
    call_stack_.clear();
  }

  // Pre-size the call stack (depth ≥ the deepest stack's DAG) so
  // RunVertex never grows it mid-request.
  void ReserveCallStack(size_t depth) { call_stack_.reserve(depth); }

  // Run the request from the stack root.
  Status Dispatch(ipc::Request& req) { return RunVertex(stack_->root, req); }

  // Run the outputs of the vertex currently executing, in declaration
  // order. Errors short-circuit: the first failing output wins.
  Status Forward(ipc::Request& req) {
    if (call_stack_.empty()) {
      return Status::Internal("Forward called outside vertex execution");
    }
    const Stack::Vertex& vertex = stack_->vertices[call_stack_.back()];
    for (const size_t out : vertex.outputs) {
      LABSTOR_RETURN_IF_ERROR(RunVertex(out, req));
    }
    return Status::Ok();
  }

  // Does the current vertex have anywhere to forward to?
  bool HasDownstream() const {
    return !call_stack_.empty() &&
           !stack_->vertices[call_stack_.back()].outputs.empty();
  }

  Stack& stack() { return *stack_; }
  ModContext& ctx() { return *ctx_; }
  ExecTrace& trace() { return *trace_; }

 private:
  Status RunVertex(size_t idx, ipc::Request& req) {
    call_stack_.push_back(idx);
    Status st;
    // Real-mode per-mod spans (nested "mod" events, one per vertex).
    // Sim mode reconstructs these from the ExecTrace ledger in virtual
    // time instead, so wall-clock capture switches itself off there.
    telemetry::Telemetry* tel = ctx_->telemetry;
    if (tel != nullptr && tel->enabled() && !tel->virtual_time()) {
      const uint64_t t0 = tel->NowNs();
      st = stack_->vertices[idx].mod->Process(req, *this);
      tel->trace().Span(req.worker, telemetry::kCatMod,
                        stack_->vertices[idx].mod->mod_name(), t0,
                        tel->NowNs() - t0);
    } else {
      st = stack_->vertices[idx].mod->Process(req, *this);
    }
    call_stack_.pop_back();
    return st;
  }

  Stack* stack_ = nullptr;
  ModContext* ctx_ = nullptr;
  ExecTrace* trace_ = nullptr;
  std::vector<size_t> call_stack_;
};

}  // namespace labstor::core
