#include "ledger.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/bytes.h"

extern char **environ;

namespace ledger {

void
Result::mismatch(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "ledger: MISMATCH: %s\n", what.c_str());
    std::string &log = info["mismatches"];
    if (log.size() < 2000)
        log += (log.empty() ? "" : "; ") + what;
}

void
Result::note(const std::string &name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", value);
    info[name] = buf;
}

void
Result::failOps(uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    failed += n;
    mismatch(std::to_string(n) + " failed: " + what);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
fileDigest(const std::string &path, uint64_t &digest)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    digest = mhp::fnv1a64(bytes.data(), bytes.size());
    return true;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

std::vector<char *>
argvOf(const std::vector<std::string> &argv)
{
    std::vector<char *> out;
    for (const std::string &a : argv)
        out.push_back(const_cast<char *>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

} // namespace

int
spawnChild(const std::vector<std::string> &argv, const std::string &cwd,
           const std::string &outPath, const std::string &errPath)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY,
                                     0);
    posix_spawn_file_actions_addopen(
        &actions, 1, outPath.empty() ? "/dev/null" : outPath.c_str(),
        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(
        &actions, 2, errPath.empty() ? "/dev/null" : errPath.c_str(),
        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (!cwd.empty())
        posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());
    pid_t pid = -1;
    std::vector<char *> args = argvOf(argv);
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? pid : -1;
}

void
reapChild(int pid, ChildResult &result)
{
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            result.exitCode = -1;
            return;
        }
    }
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status);
    result.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ChildResult
runChild(const std::vector<std::string> &argv, const std::string &logBase)
{
    ChildResult result;
    const double start = nowS();
    const int pid = spawnChild(argv, "", logBase + ".out", logBase + ".err");
    if (pid < 0)
        return result;
    reapChild(pid, result);
    result.wallS = nowS() - start;
    std::ifstream out(logBase + ".out");
    result.out.assign(std::istreambuf_iterator<char>(out),
                      std::istreambuf_iterator<char>());
    return result;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

bool
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    return std::filesystem::is_directory(path, ec);
}

} // namespace ledger
