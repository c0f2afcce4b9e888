#pragma once

/// \file daemon.hpp
/// A sched_server child process driven over pipes, as sched_client
/// drives it: request lines in on stdin, response lines out on stdout,
/// the EOF diagnostic line on stderr.

#include <string>
#include <string_view>

namespace e2ebench {

class Daemon {
 public:
  /// Spawns `server --jobs 1 --batch 1` (one worker; every request is
  /// answered as soon as it arrives, which a closed-loop caller needs).
  explicit Daemon(const std::string& server);
  /// Kills the child if finish() did not run, and waits for it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Writes `head`, `body` and a newline as one line; throws when the
  /// daemon is gone.
  void send(std::string_view head, std::string_view body = {});
  /// Takes one response line (without its newline) if a whole one has
  /// arrived; never waits. Throws at EOF.
  bool poll_line(std::string& line);
  /// Reads one response line, polling until it arrives; throws at EOF.
  void read_line(std::string& line) {
    while (!poll_line(line)) {
    }
  }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  /// Closes stdin, waits for a clean exit and returns what the daemon
  /// wrote to stderr (its diag line); throws on a non-zero exit.
  std::string finish();

 private:
  int pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string send_buf_;  ///< retained, so a warm send does not allocate
  std::string buf_;       ///< read buffer; lines start at pos_
  std::size_t pos_ = 0;
};

}  // namespace e2ebench
