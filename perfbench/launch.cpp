// perfbench_launch: runs one command as a child and prints what it cost.
//
//   perfbench_launch TIMEOUT_S COMMAND [ARG...]
//
// Prints one JSON line on stdout:
//   {"wall_s": .., "cpu_s": .., "max_rss_kb": .., "exit": ..}
// wall_s is steady-clock time from fork to reap. cpu_s (user + system)
// and max_rss_kb come from wait4. exit is the child's exit code, or minus
// the signal that ended it. The child's stdout goes to /dev/null and its
// stderr is this program's. A child still running after TIMEOUT_S seconds
// is killed, so this program always reaps what it starts.
//
// perfbench/run.py launches the product through this small program rather
// than straight from Python because Linux carries a process's peak RSS
// across exec: a child forked from the Python interpreter would report the
// interpreter's RSS whenever the product's own peak is smaller.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace {

volatile sig_atomic_t g_child = 0;

void kill_child(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_launch TIMEOUT_S COMMAND [ARG...]\n");
    return 2;
  }
  const unsigned timeout = std::strtoul(argv[1], nullptr, 10);

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_launch: fork");
    return 2;
  }
  if (pid == 0) {
    const int null = open("/dev/null", O_WRONLY);
    if (null >= 0) dup2(null, STDOUT_FILENO);
    execvp(argv[2], argv + 2);
    std::perror("perfbench_launch: exec");
    _exit(127);
  }
  g_child = pid;
  signal(SIGALRM, kill_child);
  alarm(timeout);

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_launch: wait4");
      return 2;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  alarm(0);

  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  const int exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::printf("{\"wall_s\": %.9f, \"cpu_s\": %.6f, \"max_rss_kb\": %ld, "
              "\"exit\": %d}\n",
              wall, cpu, usage.ru_maxrss, exit_code);
  return 0;
}
