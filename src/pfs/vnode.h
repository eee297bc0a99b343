// V-node layer: the Unix-facing face of the storage service (§5).
//
// "Higher-level services are being added; a Unix v-node interface is
// installed which allows the storage system to be used as a Unix file
// system." This layer adds what the core layer deliberately lacks: a
// directory tree mapping slash-separated paths to file ids, and per-open
// file descriptors with an offset cursor. Directories are kept in the
// metadata checkpoint via a reserved "directory file" so they survive
// crashes with everything else.
#ifndef PEGASUS_SRC_PFS_VNODE_H_
#define PEGASUS_SRC_PFS_VNODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/pfs/server.h"

namespace pegasus::pfs {

struct VnodeStat {
  FileId file = -1;
  FileType type = FileType::kNormal;
  int64_t size = 0;
};

class VnodeLayer {
 public:
  using Fd = int;
  using IoCallback = std::function<void(bool ok, int64_t bytes)>;
  using ReadCallback = std::function<void(bool ok, std::vector<uint8_t> data)>;

  explicit VnodeLayer(PegasusFileServer* server);

  // --- namespace operations (synchronous: directory data is metadata) ---
  bool Mkdir(const std::string& path);
  bool Rmdir(const std::string& path);  // must be empty
  // Creates and opens a file; fails if it exists.
  std::optional<Fd> Create(const std::string& path, FileType type = FileType::kNormal);
  // Opens an existing file.
  std::optional<Fd> Open(const std::string& path);
  bool Unlink(const std::string& path);
  bool Rename(const std::string& from, const std::string& to);
  std::optional<VnodeStat> Stat(const std::string& path) const;
  // Names (not paths) of entries in a directory; nullopt if not a directory.
  std::optional<std::vector<std::string>> ReadDir(const std::string& path) const;

  // --- descriptor operations ---
  void Write(Fd fd, const std::vector<uint8_t>& data, IoCallback callback);
  void Read(Fd fd, int64_t len, ReadCallback callback);
  // Absolute seek; returns the new offset or -1 for a bad fd.
  int64_t Seek(Fd fd, int64_t offset);
  int64_t Tell(Fd fd) const;
  bool Close(Fd fd);

 private:
  struct Node {
    bool is_dir = false;
    FileId file = -1;  // for files
    std::map<std::string, Node> children;
  };
  struct OpenFile {
    FileId file = -1;
    int64_t offset = 0;
  };

  const Node* Walk(const std::vector<std::string>& parts) const;
  Node* WalkParent(const std::vector<std::string>& parts, bool create_dirs);
  static std::vector<std::string> Split(const std::string& path);

  PegasusFileServer* server_;
  Node root_;
  std::map<Fd, OpenFile> fds_;
  Fd next_fd_ = 3;  // tradition
};

}  // namespace pegasus::pfs

#endif  // PEGASUS_SRC_PFS_VNODE_H_
