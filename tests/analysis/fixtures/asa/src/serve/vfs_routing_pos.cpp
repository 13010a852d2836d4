// Positive fixture for durability-vfs-routing: raw POSIX file syscalls
// anywhere in src/serve outside vfs.cpp bypass the Vfs fault-injection
// layer. The Vfs-routed equivalents below it must stay silent.
#include <string>

namespace vnfr::serve {

class Vfs {
  public:
    virtual int create_truncate(const std::string& path) = 0;
    virtual void write_all(int fd, const std::string& path,
                           const std::string& bytes) = 0;
    virtual void fdatasync(int fd, const std::string& path) = 0;
    virtual void close(int fd) = 0;
    virtual void unlink(const std::string& path) = 0;
};

int open_raw(const std::string& path) {
    return ::open(path.c_str(), 0);  // expect: durability-vfs-routing
}

void scribble_raw(int fd, const std::string& payload) {
    ::write(fd, payload.data(), payload.size());  // expect: durability-vfs-routing
    ::close(fd);  // expect: durability-vfs-routing
}

void drop_raw(const std::string& path) {
    ::unlink(path.c_str());  // expect: durability-vfs-routing
}

void tear_raw(const std::string& path) {
    ::truncate(path.c_str(), 0);  // expect: durability-vfs-routing
}

// The same operations routed through the Vfs layer are clean: faults,
// short writes, and power cuts injected by a FaultyVfs cover them.
void scribble_routed(Vfs& vfs, const std::string& path,
                     const std::string& payload) {
    const int fd = vfs.create_truncate(path);
    vfs.write_all(fd, path, payload);
    vfs.fdatasync(fd, path);
    vfs.close(fd);
    vfs.unlink(path);
}

}  // namespace vnfr::serve
