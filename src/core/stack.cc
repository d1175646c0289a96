#include "core/stack.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "faultinject/faultinject.h"

namespace labstor::core {

bool CanForward(ModType from, ModType to) {
  switch (from) {
    case ModType::kPermissions:
      // A gate may precede anything server-side.
      return to != ModType::kGeneric;
    case ModType::kPushdown:
      // The chain interpreter sits at the top of a stack and rewrites
      // requests into the ops its steps name (KVS gets/puts, raw block
      // reads/writes), so it may precede any interface or block layer.
      return to == ModType::kKvs || to == ModType::kFilesystem ||
             to == ModType::kCache || to == ModType::kScheduler ||
             to == ModType::kTransform || to == ModType::kConsistency ||
             to == ModType::kDriver;
    case ModType::kFilesystem:
    case ModType::kKvs:
      return to == ModType::kCache || to == ModType::kScheduler ||
             to == ModType::kTransform || to == ModType::kConsistency ||
             to == ModType::kDriver;
    case ModType::kCache:
      return to == ModType::kScheduler || to == ModType::kTransform ||
             to == ModType::kConsistency || to == ModType::kDriver;
    case ModType::kTransform:
      return to == ModType::kScheduler || to == ModType::kCache ||
             to == ModType::kConsistency || to == ModType::kDriver ||
             to == ModType::kTransform;
    case ModType::kConsistency:
      return to == ModType::kScheduler || to == ModType::kCache ||
             to == ModType::kTransform || to == ModType::kDriver;
    case ModType::kScheduler:
      return to == ModType::kDriver;
    case ModType::kDriver:
      return false;  // terminal
    case ModType::kGeneric:
      return false;  // connectors live client-side, not in the DAG
    case ModType::kDummy:
      return to == ModType::kDummy;
  }
  return false;
}

namespace {

Result<ExecMode> ParseExecMode(const std::string& text) {
  if (text == "async" || text == "async_exec_mode") return ExecMode::kAsync;
  if (text == "sync" || text == "sync_exec_mode") return ExecMode::kSync;
  return Status::InvalidArgument("unknown exec_mode '" + text + "'");
}

}  // namespace

Result<StackSpec> StackSpec::FromYaml(const yaml::NodePtr& root) {
  if (root == nullptr || !root->IsMapping()) {
    return Status::InvalidArgument("stack spec must be a mapping");
  }
  StackSpec spec;
  spec.mount = root->GetString("mount", "");
  if (spec.mount.empty()) {
    return Status::InvalidArgument("stack spec requires a 'mount' point");
  }
  if (const yaml::NodePtr rules = root->Get("rules"); rules != nullptr) {
    const std::string mode = rules->GetString("exec_mode", "async");
    LABSTOR_ASSIGN_OR_RETURN(exec_mode, ParseExecMode(mode));
    spec.rules.exec_mode = exec_mode;
    spec.rules.priority = static_cast<int>(rules->GetInt("priority", 0));
    spec.rules.permissions_required =
        rules->GetBool("permissions_required", true);
    if (const yaml::NodePtr admins = rules->Get("admins");
        admins != nullptr && admins->IsSequence()) {
      for (const yaml::NodePtr& item : admins->items()) {
        if (item->IsScalar()) spec.rules.admins.push_back(item->scalar());
      }
    }
  }
  const yaml::NodePtr dag = root->Get("dag");
  if (dag == nullptr || !dag->IsSequence() || dag->items().empty()) {
    return Status::InvalidArgument("stack spec requires a non-empty 'dag'");
  }
  for (const yaml::NodePtr& vertex : dag->items()) {
    if (!vertex->IsMapping()) {
      return Status::InvalidArgument("dag vertices must be mappings");
    }
    StackVertexSpec vs;
    vs.mod_name = vertex->GetString("mod", "");
    if (vs.mod_name.empty()) {
      return Status::InvalidArgument("dag vertex requires a 'mod' name");
    }
    vs.uuid = vertex->GetString("uuid", vs.mod_name);
    vs.version = static_cast<uint32_t>(vertex->GetUint("version", 0));
    vs.params = vertex->Get("params");
    if (const yaml::NodePtr outputs = vertex->Get("outputs");
        outputs != nullptr && outputs->IsSequence()) {
      for (const yaml::NodePtr& out : outputs->items()) {
        if (out->IsScalar()) vs.outputs.push_back(out->scalar());
      }
    }
    spec.dag.push_back(std::move(vs));
  }
  return spec;
}

Result<StackSpec> StackSpec::Parse(std::string_view text) {
  LABSTOR_ASSIGN_OR_RETURN(root, yaml::Parse(text));
  return FromYaml(root);
}

Result<StackSpec> StackSpec::ParseFile(const std::string& path) {
  LABSTOR_ASSIGN_OR_RETURN(root, yaml::ParseFile(path));
  return FromYaml(root);
}

Status StackNamespace::Validate(const StackSpec& spec) const {
  if (spec.dag.empty()) {
    return Status::InvalidArgument("stack has no vertices");
  }
  if (spec.dag.size() > options_.max_stack_length) {
    return Status::InvalidArgument("stack exceeds maximum length " +
                                   std::to_string(options_.max_stack_length));
  }
  // Unique UUIDs; outputs must reference existing vertices.
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < spec.dag.size(); ++i) {
    if (!index.emplace(spec.dag[i].uuid, i).second) {
      return Status::InvalidArgument("duplicate vertex uuid '" +
                                     spec.dag[i].uuid + "'");
    }
  }
  std::vector<int> indegree(spec.dag.size(), 0);
  for (const StackVertexSpec& vs : spec.dag) {
    for (const std::string& out : vs.outputs) {
      const auto it = index.find(out);
      if (it == index.end()) {
        return Status::InvalidArgument("vertex '" + vs.uuid +
                                       "' outputs to unknown uuid '" + out +
                                       "'");
      }
      ++indegree[it->second];
    }
  }
  // Reachability from the root (first vertex): in a DAG every vertex
  // is reachable from the root exactly when the root is its only
  // vertex without inputs. Acyclicity (Kahn) below.
  if (indegree[0] != 0) {
    return Status::InvalidArgument(
        "first vertex must be the stack root (no inputs)");
  }
  for (size_t i = 1; i < indegree.size(); ++i) {
    if (indegree[i] == 0) {
      return Status::InvalidArgument("vertex '" + spec.dag[i].uuid +
                                     "' is unreachable from the root");
    }
  }
  std::vector<size_t> order;
  std::vector<int> degree = indegree;
  for (size_t i = 0; i < degree.size(); ++i) {
    if (degree[i] == 0) order.push_back(i);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const StackVertexSpec& vs = spec.dag[order[head]];
    for (const std::string& out : vs.outputs) {
      if (--degree[index.at(out)] == 0) order.push_back(index.at(out));
    }
  }
  if (order.size() != spec.dag.size()) {
    return Status::InvalidArgument("stack DAG contains a cycle");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Stack>> StackNamespace::Build(const StackSpec& spec,
                                                     ModuleRegistry& registry,
                                                     ModContext& ctx) const {
  LABSTOR_RETURN_IF_ERROR(Validate(spec));
  auto stack = std::make_unique<Stack>();
  stack->spec = spec;
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < spec.dag.size(); ++i) index[spec.dag[i].uuid] = i;
  // Instantiate (or reuse) each vertex's mod.
  for (const StackVertexSpec& vs : spec.dag) {
    // Mid-DAG mount failure: the partially-built stack is discarded
    // and the namespace stays untouched (already-instantiated mod
    // instances remain in the registry by design — they are shared
    // with other stacks and a retried mount reuses them).
    LABSTOR_FAULTPOINT("core.mount.middag");
    LABSTOR_ASSIGN_OR_RETURN(
        mod,
        registry.Instantiate(vs.mod_name, vs.uuid, vs.params, ctx, vs.version));
    Stack::Vertex vertex;
    vertex.uuid = vs.uuid;
    vertex.mod = mod;
    stack->vertices.push_back(std::move(vertex));
  }
  // Wire outputs and check type compatibility.
  for (size_t i = 0; i < spec.dag.size(); ++i) {
    for (const std::string& out : spec.dag[i].outputs) {
      const size_t j = index.at(out);
      if (!CanForward(stack->vertices[i].mod->type(),
                      stack->vertices[j].mod->type())) {
        return Status::InvalidArgument(
            std::string("incompatible edge: ") +
            std::string(ModTypeName(stack->vertices[i].mod->type())) +
            " -> " + std::string(ModTypeName(stack->vertices[j].mod->type())));
      }
      stack->vertices[i].outputs.push_back(j);
    }
  }
  // Every sink must be a terminal type (driver or dummy).
  for (const Stack::Vertex& v : stack->vertices) {
    if (v.outputs.empty() && v.mod->type() != ModType::kDriver &&
        v.mod->type() != ModType::kDummy) {
      return Status::InvalidArgument(
          "stack path ends in non-terminal mod '" + v.uuid + "' (" +
          std::string(ModTypeName(v.mod->type())) + ")");
    }
  }
  stack->root = 0;
  return stack;
}

Result<Stack*> StackNamespace::Mount(const StackSpec& spec,
                                     ModuleRegistry& registry, ModContext& ctx,
                                     const ipc::Credentials& actor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stacks_.contains(spec.mount)) {
    return Status::AlreadyExists("mount point '" + spec.mount + "' in use");
  }
  LABSTOR_ASSIGN_OR_RETURN(stack, Build(spec, registry, ctx));
  stack->id = next_id_++;
  // The mounting user becomes an implicit admin.
  stack->spec.rules.admins.push_back(std::to_string(actor.uid));
  Stack* raw = stack.get();
  stacks_.emplace(spec.mount, std::move(stack));
  BumpEpoch();
  return raw;
}

Status StackNamespace::CheckAdmin(const Stack& stack,
                                  const ipc::Credentials& actor) const {
  if (actor.IsRoot()) return Status::Ok();
  const std::string uid = std::to_string(actor.uid);
  for (const std::string& admin : stack.spec.rules.admins) {
    if (admin == uid || (admin == "root" && actor.IsRoot())) {
      return Status::Ok();
    }
  }
  return Status::PermissionDenied("uid " + uid + " may not modify stack '" +
                                  stack.spec.mount + "'");
}

Status StackNamespace::Unmount(const std::string& mount,
                               const ipc::Credentials& actor) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = stacks_.find(mount);
  if (it == stacks_.end()) return Status::NotFound("nothing mounted at '" + mount + "'");
  LABSTOR_RETURN_IF_ERROR(CheckAdmin(*it->second, actor));
  stacks_.erase(it);
  BumpEpoch();
  return Status::Ok();
}

Status StackNamespace::Modify(const StackSpec& updated,
                              ModuleRegistry& registry, ModContext& ctx,
                              const ipc::Credentials& actor) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = stacks_.find(updated.mount);
  if (it == stacks_.end()) {
    return Status::NotFound("nothing mounted at '" + updated.mount + "'");
  }
  LABSTOR_RETURN_IF_ERROR(CheckAdmin(*it->second, actor));
  LABSTOR_ASSIGN_OR_RETURN(rebuilt, Build(updated, registry, ctx));
  // Keep identity and admin set; swap spec + wiring atomically.
  rebuilt->id = it->second->id;
  rebuilt->spec.rules.admins = it->second->spec.rules.admins;
  it->second = std::move(rebuilt);
  BumpEpoch();
  return Status::Ok();
}

Result<Stack*> StackNamespace::Resolve(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  Stack* best = nullptr;
  size_t best_len = 0;
  for (const auto& [mount, stack] : stacks_) {
    const bool exact = path == mount;
    const bool prefix =
        path.size() > mount.size() && StartsWith(path, mount) &&
        (mount.back() == '/' || path[mount.size()] == '/');
    if ((exact || prefix) && mount.size() >= best_len) {
      best = stack.get();
      best_len = mount.size();
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no stack mounted for path '" + path + "'");
  }
  return best;
}

Result<Stack*> StackNamespace::FindByMount(const std::string& mount) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = stacks_.find(mount);
  if (it == stacks_.end()) {
    return Status::NotFound("nothing mounted at '" + mount + "'");
  }
  return it->second.get();
}

Result<Stack*> StackNamespace::FindById(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [mount, stack] : stacks_) {
    if (stack->id == id) return stack.get();
  }
  return Status::NotFound("no stack with id " + std::to_string(id));
}

Status StackNamespace::RefreshBindings(const ModuleRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [mount, stack] : stacks_) {
    for (Stack::Vertex& vertex : stack->vertices) {
      LABSTOR_ASSIGN_OR_RETURN(mod, registry.Find(vertex.uuid));
      vertex.mod = mod;
    }
  }
  BumpEpoch();
  return Status::Ok();
}

std::vector<std::string> StackNamespace::Mounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> mounts;
  mounts.reserve(stacks_.size());
  for (const auto& [mount, _] : stacks_) mounts.push_back(mount);
  return mounts;
}

size_t StackNamespace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stacks_.size();
}

}  // namespace labstor::core
