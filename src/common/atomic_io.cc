#include "common/atomic_io.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/strutil.hh"

namespace amsc
{

namespace
{

std::uint64_t
parseSpecCount(const std::string &token, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || *end != '\0')
        throw ConfigError("AMSC_IO_FAULTS: bad count '" + value +
                          "' for " + token);
    return v;
}

/** Parent directory of @p path ("." when the path has none). */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return; // best effort: some filesystems refuse dir fds
    ::fsync(fd);
    ::close(fd);
}

/** write(2) the full buffer, honouring the fault injector. */
void
writeAll(int fd, const std::string &path, const char *data,
         std::size_t n)
{
    IoFaultInjector &inj = IoFaultInjector::instance();
    const std::size_t allowed = inj.onWrite(path, n);
    std::size_t off = 0;
    while (off < allowed) {
        const ssize_t w = ::write(fd, data + off, allowed - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw IoError(path, "write failed", errno);
        }
        off += static_cast<std::size_t>(w);
    }
    if (allowed < n)
        inj.failShortWrite(path);
}

} // namespace

IoFaultInjector::IoFaultInjector()
{
    const char *env = std::getenv("AMSC_IO_FAULTS");
    if (env != nullptr && *env != '\0')
        configure(env);
}

IoFaultInjector &
IoFaultInjector::instance()
{
    static IoFaultInjector injector;
    return injector;
}

void
IoFaultInjector::configure(const std::string &spec)
{
    writeCount_.store(0);
    renameCount_.store(0);
    failWriteAt_ = 0;
    shortWriteAt_ = 0;
    enospcAt_ = 0;
    killAfterRenameAt_ = 0;
    for (const std::string &token : splitList(spec, ',')) {
        if (token.empty())
            continue;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            throw ConfigError("AMSC_IO_FAULTS: expected mode=N, got '" +
                              token + "'");
        const std::string mode = token.substr(0, eq);
        const std::uint64_t n =
            parseSpecCount(mode, token.substr(eq + 1));
        if (mode == "fail_write")
            failWriteAt_ = n;
        else if (mode == "short_write")
            shortWriteAt_ = n;
        else if (mode == "enospc")
            enospcAt_ = n;
        else if (mode == "kill_after_rename")
            killAfterRenameAt_ = n;
        else
            throw ConfigError("AMSC_IO_FAULTS: unknown mode '" + mode +
                              "'");
    }
}

std::size_t
IoFaultInjector::onWrite(const std::string &path, std::size_t n)
{
    if (!armed())
        return n;
    const std::uint64_t count = writeCount_.fetch_add(1) + 1;
    if (failWriteAt_ != 0 && count == failWriteAt_)
        throw IoError(path, "injected write failure");
    if (enospcAt_ != 0 && count == enospcAt_)
        throw IoError(path, "injected write failure", ENOSPC);
    if (shortWriteAt_ != 0 && count == shortWriteAt_)
        return n / 2;
    return n;
}

void
IoFaultInjector::failShortWrite(const std::string &path)
{
    throw IoError(path, "injected short write");
}

void
IoFaultInjector::onRename(const std::string &path)
{
    if (!armed())
        return;
    const std::uint64_t count = renameCount_.fetch_add(1) + 1;
    if (killAfterRenameAt_ != 0 && count == killAfterRenameAt_) {
        (void)path;
        std::_Exit(137); // simulated SIGKILL right after the rename
    }
}

void
writeFileAtomic(const std::string &path, std::string_view content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throw IoError(tmp, "cannot create", errno);
    try {
        writeAll(fd, tmp, content.data(), content.size());
        if (::fsync(fd) != 0)
            throw IoError(tmp, "fsync failed", errno);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw IoError(tmp, "close failed", errno);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw IoError(path, "rename failed", err);
    }
    fsyncDir(dirOf(path));
    IoFaultInjector::instance().onRename(path);
}

void
renameFileDurable(const std::string &from, const std::string &to)
{
    if (::rename(from.c_str(), to.c_str()) != 0)
        throw IoError(to, "rename failed", errno);
    fsyncDir(dirOf(to));
    IoFaultInjector::instance().onRename(to);
}

void
appendFileDurable(const std::string &path, std::string_view content)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0)
        throw IoError(path, "cannot open for append", errno);
    try {
        writeAll(fd, path, content.data(), content.size());
        if (::fsync(fd) != 0)
            throw IoError(path, "fsync failed", errno);
    } catch (...) {
        ::close(fd);
        throw;
    }
    if (::close(fd) != 0)
        throw IoError(path, "close failed", errno);
}

void
checkedStreamWrite(std::ostream &os, std::string_view content,
                   const std::string &path)
{
    IoFaultInjector &inj = IoFaultInjector::instance();
    const std::size_t allowed = inj.onWrite(path, content.size());
    os.write(content.data(),
             static_cast<std::streamsize>(allowed));
    if (!os.good())
        throw IoError(path, "write failed");
    if (allowed < content.size()) {
        os.flush();
        inj.failShortWrite(path);
    }
}

} // namespace amsc
