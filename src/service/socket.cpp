#include "service/socket.hpp"

#include "util/check.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace gesmc {

namespace {

std::string errno_text(const std::string& what) {
    return what + ": " + std::strerror(errno);
}

sockaddr_un make_address(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw Error("socket path too long (" + std::to_string(path.size()) + " bytes, max " +
                    std::to_string(sizeof(addr.sun_path) - 1) + "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

FdHandle make_stream_socket() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw Error(errno_text("socket(AF_UNIX)"));
    return FdHandle(fd);
}

} // namespace

void FdHandle::reset() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

FdHandle listen_unix(const std::string& path, int backlog) {
    const sockaddr_un addr = make_address(path);
    FdHandle fd = make_stream_socket();
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) throw Error(errno_text("bind(" + path + ")"));
        // A file exists at the path.  Reclaim it only if it really is a
        // stale daemon socket (a previous daemon died without unlinking):
        // a live daemon -> refuse, and a non-socket file -> refuse too —
        // a typo'd --socket must never delete user data.
        struct stat st;
        if (::lstat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) {
            throw Error(path + " exists and is not a socket; refusing to replace it");
        }
        {
            FdHandle probe = make_stream_socket();
            const int connected = ::connect(
                probe.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
            if (connected == 0) {
                throw Error("socket " + path + " already has a live daemon listening");
            }
        }
        if (::unlink(path.c_str()) != 0) {
            throw Error(errno_text("unlink stale socket " + path));
        }
        if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
            throw Error(errno_text("bind(" + path + ")"));
        }
    }
    if (::listen(fd.get(), backlog) != 0) throw Error(errno_text("listen(" + path + ")"));
    return fd;
}

FdHandle connect_unix(const std::string& path) {
    const sockaddr_un addr = make_address(path);
    FdHandle fd = make_stream_socket();
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw Error(errno_text("connect(" + path + ")"));
    }
    return fd;
}

void write_all(int fd, const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw Error(errno_text("socket write"));
        }
        written += static_cast<std::size_t>(n);
    }
}

bool read_some(int fd, std::string& buffer) {
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw Error(errno_text("socket read"));
        }
        if (n == 0) return false;
        buffer.append(chunk, static_cast<std::size_t>(n));
        return true;
    }
}

std::optional<Frame> read_frame(int fd, FrameReader& reader) {
    for (;;) {
        std::optional<Frame> frame = reader.next();
        if (frame.has_value()) return frame;
        std::string chunk;
        if (!read_some(fd, chunk)) return std::nullopt;
        reader.feed(chunk.data(), chunk.size());
    }
}

std::string read_file_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw Error("cannot open " + path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool read_line(int fd, std::string& buffer, std::string& line, std::size_t max_line) {
    for (;;) {
        const std::size_t newline = buffer.find('\n');
        if (newline != std::string::npos) {
            line.assign(buffer, 0, newline);
            buffer.erase(0, newline + 1);
            return true;
        }
        if (buffer.size() > max_line) {
            throw Error("control line exceeds the protocol maximum");
        }
        if (!read_some(fd, buffer)) return false;
    }
}

} // namespace gesmc
