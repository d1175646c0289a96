// LabStacks: user-defined DAGs of LabMods (paper §III-B).
//
// A stack is defined by a YAML spec with a mount point, governing
// rules, and a DAG of vertices (mod name, instance UUID, init params,
// outputs). Mounting instantiates missing mods in the Module Registry,
// validates compatibility, and inducts the stack into the namespace.
// Stacks can be modified live (modify_stack) and their mods hot-
// swapped (the Module Manager's upgrade path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/yaml.h"
#include "core/labmod.h"
#include "core/module_registry.h"
#include "ipc/credentials.h"

namespace labstor::core {

enum class ExecMode : uint8_t {
  kAsync,  // requests flow through Runtime workers (secure, default)
  kSync,   // DAG executes inline in the client thread (decentralized)
};

struct StackRules {
  ExecMode exec_mode = ExecMode::kAsync;
  int priority = 0;
  std::vector<std::string> admins;  // users allowed to modify the stack
  bool permissions_required = true;
};

struct StackVertexSpec {
  std::string mod_name;
  std::string uuid;  // human-readable instance UUID
  uint32_t version = 0;  // 0 = latest installed
  yaml::NodePtr params;
  std::vector<std::string> outputs;  // UUIDs of downstream vertices
};

struct StackSpec {
  std::string mount;
  StackRules rules;
  std::vector<StackVertexSpec> dag;

  static Result<StackSpec> FromYaml(const yaml::NodePtr& root);
  static Result<StackSpec> Parse(std::string_view text);
  static Result<StackSpec> ParseFile(const std::string& path);
};

// A mounted stack. Vertices cache resolved LabMod pointers; after an
// upgrade the namespace refreshes them from the registry.
struct Stack {
  uint32_t id = 0;
  StackSpec spec;
  struct Vertex {
    std::string uuid;
    LabMod* mod = nullptr;
    std::vector<size_t> outputs;
  };
  std::vector<Vertex> vertices;
  size_t root = 0;

  // One straight inline chain: sync exec mode and no vertex with more
  // than one output. Validate makes every vertex reachable from the
  // root, so such a DAG is a single path through all of them. Its only
  // reader is perfbench's core.stack.fused flag.
  bool is_fused() const {
    if (exec_mode() != ExecMode::kSync) return false;
    for (const Vertex& vertex : vertices) {
      if (vertex.outputs.size() > 1) return false;
    }
    return true;
  }

  ExecMode exec_mode() const { return spec.rules.exec_mode; }
};

class StackNamespace {
 public:
  struct Options {
    size_t max_stack_length = 16;
  };

  StackNamespace() : StackNamespace(Options()) {}
  explicit StackNamespace(Options options) : options_(options) {}

  // Validation without side effects (also used by mount).
  Status Validate(const StackSpec& spec) const;

  // mount_stack: instantiate mods, validate, induct.
  Result<Stack*> Mount(const StackSpec& spec, ModuleRegistry& registry,
                       ModContext& ctx, const ipc::Credentials& actor);

  Status Unmount(const std::string& mount, const ipc::Credentials& actor);

  // modify_stack: replace the DAG of a mounted stack with the updated
  // spec's DAG (vertex insert/remove by diff). Admin-gated.
  Status Modify(const StackSpec& updated, ModuleRegistry& registry,
                ModContext& ctx, const ipc::Credentials& actor);

  // GenericFS-style resolution: longest-prefix match of `path` among
  // mount points ("fs::/b/hi.txt" resolves to the stack at "fs::/b").
  Result<Stack*> Resolve(const std::string& path) const;
  Result<Stack*> FindByMount(const std::string& mount) const;
  Result<Stack*> FindById(uint32_t id) const;

  // Re-resolve all vertex mod pointers (after upgrades). The Module
  // Manager calls this while traffic is quiesced, which is what makes
  // rewriting the bindings in place safe.
  Status RefreshBindings(const ModuleRegistry& registry);

  std::vector<std::string> Mounts() const;
  size_t size() const;

  // Mutation epoch: advanced by every Mount / Unmount / Modify /
  // RefreshBindings. Lock-free readers (the workers' per-thread
  // stack_id → Stack* caches) revalidate against this instead of
  // taking mu_ per request; a changed epoch invalidates every cached
  // pointer, including ones Modify just dangled. Epoch values are
  // drawn from a process-global counter, so no two namespace
  // instances (e.g. sequential Runtimes in one test binary) can ever
  // present the same epoch to a thread-local cache.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Stable reference to the epoch cell for ModContext::ns_epoch — mods
  // that gate state changes on namespace generations (pushdown chain
  // re-registration) read it without holding the namespace lock.
  const std::atomic<uint64_t>& epoch_ref() const { return epoch_; }

 private:
  Status CheckAdmin(const Stack& stack, const ipc::Credentials& actor) const;
  Result<std::unique_ptr<Stack>> Build(const StackSpec& spec,
                                       ModuleRegistry& registry,
                                       ModContext& ctx) const;
  static uint64_t NextEpoch() {
    static std::atomic<uint64_t> global{1};
    return global.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpEpoch() { epoch_.store(NextEpoch(), std::memory_order_release); }

  Options options_;
  mutable std::mutex mu_;
  std::atomic<uint64_t> epoch_{NextEpoch()};
  uint32_t next_id_ = 1;
  std::unordered_map<std::string, std::unique_ptr<Stack>> stacks_;  // by mount
};

// Compatibility matrix: may a mod of type `from` forward to `to`?
bool CanForward(ModType from, ModType to);

}  // namespace labstor::core
