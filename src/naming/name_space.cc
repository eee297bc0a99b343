#include "src/naming/name_space.h"

namespace pegasus::naming {

NameSpace::NameSpace(std::string name) : name_(std::move(name)), root_(std::make_unique<Node>()) {}

NameSpace::~NameSpace() = default;

std::vector<std::string> NameSpace::SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) {
        parts.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    parts.push_back(cur);
  }
  return parts;
}

NameSpace::Node* NameSpace::WalkToParent(const std::vector<std::string>& components, bool create) {
  Node* node = root_.get();
  for (size_t i = 0; i + 1 < components.size(); ++i) {
    if (node->kind != Node::Kind::kDirectory) {
      return nullptr;
    }
    auto it = node->children.find(components[i]);
    if (it == node->children.end()) {
      if (!create) {
        return nullptr;
      }
      auto child = std::make_unique<Node>();
      it = node->children.emplace(components[i], std::move(child)).first;
    }
    node = it->second.get();
  }
  return node;
}

bool NameSpace::Bind(const std::string& path, ObjectHandle handle) {
  auto components = SplitPath(path);
  if (components.empty()) {
    return false;
  }
  Node* parent = WalkToParent(components, /*create=*/true);
  if (parent == nullptr || parent->kind != Node::Kind::kDirectory) {
    return false;
  }
  auto& slot = parent->children[components.back()];
  if (slot != nullptr && slot->kind == Node::Kind::kDirectory && !slot->children.empty()) {
    return false;  // refusing to shadow a populated directory
  }
  slot = std::make_unique<Node>();
  slot->kind = Node::Kind::kLeaf;
  slot->handle = std::move(handle);
  return true;
}

bool NameSpace::Unbind(const std::string& path) {
  auto components = SplitPath(path);
  if (components.empty()) {
    return false;
  }
  Node* parent = WalkToParent(components, /*create=*/false);
  if (parent == nullptr || parent->kind != Node::Kind::kDirectory) {
    return false;
  }
  auto it = parent->children.find(components.back());
  if (it == parent->children.end() || it->second->kind != Node::Kind::kLeaf) {
    return false;
  }
  parent->children.erase(it);
  return true;
}

bool NameSpace::Mount(const std::string& path, std::shared_ptr<NameSpaceConnection> connection) {
  auto components = SplitPath(path);
  if (components.empty() || connection == nullptr) {
    return false;
  }
  Node* parent = WalkToParent(components, /*create=*/true);
  if (parent == nullptr || parent->kind != Node::Kind::kDirectory) {
    return false;
  }
  auto& slot = parent->children[components.back()];
  if (slot != nullptr && slot->kind == Node::Kind::kDirectory && !slot->children.empty()) {
    return false;
  }
  slot = std::make_unique<Node>();
  slot->kind = Node::Kind::kMount;
  slot->mount = std::move(connection);
  return true;
}

bool NameSpace::Unmount(const std::string& path) {
  auto components = SplitPath(path);
  if (components.empty()) {
    return false;
  }
  Node* parent = WalkToParent(components, /*create=*/false);
  if (parent == nullptr) {
    return false;
  }
  auto it = parent->children.find(components.back());
  if (it == parent->children.end() || it->second->kind != Node::Kind::kMount) {
    return false;
  }
  parent->children.erase(it);
  return true;
}

void NameSpace::Resolve(const std::string& path, ResolveCallback callback) {
  ++lookups_;
  auto components = SplitPath(path);
  Node* node = root_.get();
  int steps = 0;
  for (size_t i = 0; i < components.size(); ++i) {
    if (node->kind != Node::Kind::kDirectory) {
      break;
    }
    auto it = node->children.find(components[i]);
    if (it == node->children.end()) {
      last_steps_ = steps;
      callback(std::nullopt);
      return;
    }
    ++steps;
    Node* child = it->second.get();
    if (child->kind == Node::Kind::kLeaf) {
      last_steps_ = steps;
      if (i + 1 == components.size()) {
        callback(child->handle);
      } else {
        callback(std::nullopt);  // path continues below a leaf
      }
      return;
    }
    if (child->kind == Node::Kind::kMount) {
      last_steps_ = steps;
      // Reassemble the remainder and delegate through the connection.
      std::string rest;
      for (size_t j = i + 1; j < components.size(); ++j) {
        if (!rest.empty()) {
          rest += '/';
        }
        rest += components[j];
      }
      child->mount->Lookup(rest, std::move(callback));
      return;
    }
    node = child;
  }
  last_steps_ = steps;
  callback(std::nullopt);  // empty path or resolved to a directory
}

std::optional<ObjectHandle> NameSpace::ResolveLocal(const std::string& path) {
  std::optional<ObjectHandle> out;
  bool completed = false;
  Resolve(path, [&](std::optional<ObjectHandle> handle) {
    out = std::move(handle);
    completed = true;
  });
  if (!completed) {
    return std::nullopt;  // crossed a mount that answers asynchronously
  }
  return out;
}

std::unique_ptr<NameSpace::Node> NameSpace::CloneNode(const Node& node) {
  auto out = std::make_unique<Node>();
  out->kind = node.kind;
  out->handle = node.handle;
  out->mount = node.mount;  // mounts are shared with the child
  for (const auto& [name, child] : node.children) {
    out->children.emplace(name, CloneNode(*child));
  }
  return out;
}

std::unique_ptr<NameSpace> NameSpace::Fork(const std::string& child_name) const {
  auto child = std::make_unique<NameSpace>(child_name);
  child->root_ = CloneNode(*root_);
  return child;
}

LocalNameSpaceConnection::LocalNameSpaceConnection(NameSpace* target) : target_(target) {}

void LocalNameSpaceConnection::Lookup(const std::string& relative_path,
                                      ResolveCallback callback) {
  target_->Resolve(relative_path, std::move(callback));
}

RemoteNameSpaceConnection::RemoteNameSpaceConnection(RpcClient* client) : client_(client) {}

void RemoteNameSpaceConnection::Lookup(const std::string& relative_path,
                                       ResolveCallback callback) {
  RpcClient* client = client_;
  client->Lookup(relative_path, [client, relative_path,
                                 callback = std::move(callback)](bool found) {
    if (!found) {
      callback(std::nullopt);
      return;
    }
    // The handle's maillon resolver builds the remote invocation path on
    // first use — the connection exists, so resolution is cheap.
    ObjectHandle handle(ObjectRef{0}, [client, relative_path](ObjectRef) {
      return std::make_shared<RemotePath>(client, relative_path);
    });
    callback(std::move(handle));
  });
}

}  // namespace pegasus::naming
