// Per-process name spaces (§4).
//
// Pegasus deliberately rejects a singly-rooted global name space: "the root
// of the naming tree can be the most local object and longer path names
// generally name objects further away". Every process starts with a built-in
// name space, usually inherited from its parent and partly shared. The name
// space is a local tree of bindings plus *mounted* name spaces: subtrees
// whose resolution is delegated through a connection to another process —
// possibly across the network. Sharing is achieved by convention (e.g. a
// subtree named /global), not by a universal root.
#ifndef PEGASUS_SRC_NAMING_NAME_SPACE_H_
#define PEGASUS_SRC_NAMING_NAME_SPACE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/naming/object.h"
#include "src/naming/rpc.h"

namespace pegasus::naming {

using ResolveCallback = std::function<void(std::optional<ObjectHandle>)>;

// A connection through which names below a mount point are resolved — the
// paper's "local object with a connection to a name space in another
// process".
class NameSpaceConnection {
 public:
  virtual ~NameSpaceConnection() = default;
  virtual void Lookup(const std::string& relative_path, ResolveCallback callback) = 0;
};

class NameSpace {
 public:
  explicit NameSpace(std::string name);
  ~NameSpace();

  const std::string& name() const { return name_; }

  // Binds `path` (e.g. "dev/camera") to a handle, creating intermediate
  // directories. Fails if a non-directory is in the way.
  bool Bind(const std::string& path, ObjectHandle handle);
  bool Unbind(const std::string& path);

  // Mounts `connection` at `path`: names below it resolve remotely.
  bool Mount(const std::string& path, std::shared_ptr<NameSpaceConnection> connection);
  bool Unmount(const std::string& path);

  // Resolves a path. Local resolutions complete before this returns;
  // resolutions crossing a mount complete when the connection answers.
  void Resolve(const std::string& path, ResolveCallback callback);

  // Convenience for paths expected to be local; nullopt if the path crosses
  // a mount or does not exist.
  std::optional<ObjectHandle> ResolveLocal(const std::string& path);

  // Child name space: copies the local tree and shares the mounts, the
  // paper's "inherited from a parent process and at least partly shared".
  std::unique_ptr<NameSpace> Fork(const std::string& child_name) const;

  // --- statistics for E08 ---
  int64_t lookups() const { return lookups_; }
  // Components walked in the most recent resolution (mount hops excluded).
  int last_resolution_steps() const { return last_steps_; }

  // Splits "a/b/c" into components, dropping empty ones.
  static std::vector<std::string> SplitPath(const std::string& path);

 private:
  struct Node {
    // Exactly one of these is meaningful.
    enum class Kind { kDirectory, kLeaf, kMount } kind = Kind::kDirectory;
    std::map<std::string, std::unique_ptr<Node>> children;  // kDirectory
    ObjectHandle handle;                                    // kLeaf
    std::shared_ptr<NameSpaceConnection> mount;             // kMount
  };

  static std::unique_ptr<Node> CloneNode(const Node& node);
  Node* WalkToParent(const std::vector<std::string>& components, bool create);

  std::string name_;
  std::unique_ptr<Node> root_;
  int64_t lookups_ = 0;
  int last_steps_ = 0;
};

// Mount connection to a name space in the same machine (another process's
// local name server reached by protected call; the crossing cost is folded
// into the handles it returns).
class LocalNameSpaceConnection : public NameSpaceConnection {
 public:
  explicit LocalNameSpaceConnection(NameSpace* target);
  void Lookup(const std::string& relative_path, ResolveCallback callback) override;

 private:
  NameSpace* target_;
};

// Mount connection to a remote name server over RPC: lookups travel the
// network, and resolved handles invoke via remote procedure call.
class RemoteNameSpaceConnection : public NameSpaceConnection {
 public:
  explicit RemoteNameSpaceConnection(RpcClient* client);
  void Lookup(const std::string& relative_path, ResolveCallback callback) override;

 private:
  RpcClient* client_;
};

}  // namespace pegasus::naming

#endif  // PEGASUS_SRC_NAMING_NAME_SPACE_H_
