#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

extern char** environ;

namespace e2ebench {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

// Reads `fd` to EOF into `out`.
void drain(int fd, std::string& out) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return;
    }
  }
}

}  // namespace

Daemon::Daemon(const std::string& server) {
  int in[2];
  int out[2];
  int err[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw std::runtime_error("pipe failed");
  }
  if (::pipe2(err, O_CLOEXEC) != 0) {
    for (const int fd : {in[0], in[1], out[0], out[1]}) ::close(fd);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err[1], 2);
  std::string a0 = server;
  std::string a1 = "--jobs";
  std::string a2 = "1";
  std::string a3 = "--batch";
  std::string a4 = "1";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data(),
                  nullptr};
  const int rc = ::posix_spawn(&pid_, server.c_str(), &actions, nullptr, argv,
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  for (const int fd : {in[0], out[1], err[1]}) ::close(fd);
  in_fd_ = in[1];
  out_fd_ = out[0];
  // Replies are polled, not waited for: a blocked reader's wake-up in a
  // virtual machine can take longer than the reply it waits for.
  ::fcntl(out_fd_, F_SETFL, ::fcntl(out_fd_, F_GETFL) | O_NONBLOCK);
  err_fd_ = err[0];
  if (rc != 0) {
    pid_ = -1;
    close_fd(in_fd_);
    close_fd(out_fd_);
    close_fd(err_fd_);
    throw std::runtime_error("cannot spawn " + server);
  }
}

Daemon::~Daemon() {
  close_fd(in_fd_);
  close_fd(out_fd_);
  close_fd(err_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void Daemon::send(std::string_view head, std::string_view body) {
  std::string& buf = send_buf_;
  buf.assign(head);
  buf.append(body);
  buf += '\n';
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::write(in_fd_, buf.data() + done, buf.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("sched_server closed its input");
    }
    done += static_cast<std::size_t>(n);
  }
}

bool Daemon::poll_line(std::string& line) {
  std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    buf_.erase(0, pos_);
    pos_ = 0;
    char chunk[65536];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      throw std::runtime_error("sched_server closed its output");
    }
    if (n < 0) return false;
    const std::size_t old = buf_.size();
    buf_.append(chunk, static_cast<std::size_t>(n));
    nl = buf_.find('\n', old);
    if (nl == std::string::npos) return false;
  }
  line.assign(buf_, pos_, nl - pos_);
  pos_ = nl + 1;
  return true;
}

std::string Daemon::finish() {
  close_fd(in_fd_);
  ::fcntl(out_fd_, F_SETFL, ::fcntl(out_fd_, F_GETFL) & ~O_NONBLOCK);
  std::string rest;
  drain(out_fd_, rest);
  std::string log;
  drain(err_fd_, log);
  close_fd(out_fd_);
  close_fd(err_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("sched_server exited abnormally: " + log);
  }
  if (rest.find_first_not_of('\n') != std::string::npos ||
      pos_ != buf_.size()) {
    throw std::runtime_error("sched_server sent unrequested output");
  }
  return log;
}

}  // namespace e2ebench
