#include "wire.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace kbbench {

namespace {

constexpr int kStopGraceSeconds = 20;

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Waits for bytes by polling with sched_yield instead of blocking. The
// client shares its CPU with kbserver (see PinToIdleCpu), so a blocked
// server thread (in fsync, say) leaves the CPU to the client rather than
// idle: a vCPU that halts is woken at the host's pace, which moved whole
// runs of mutation latencies by 15-30%.
ssize_t Receive(int fd, char* buffer, size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, size, MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      sched_yield();
      continue;
    }
    return n;
  }
}

// Case-insensitive header lookup in a raw header block.
std::string HeaderValue(const std::string& head, const char* name) {
  const size_t len = std::strlen(name);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t line = pos + 2;
    const size_t end = head.find("\r\n", line);
    const size_t stop = end == std::string::npos ? head.size() : end;
    if (stop - line > len && head[line + len] == ':' &&
        strncasecmp(head.data() + line, name, len) == 0) {
      size_t v = line + len + 1;
      while (v < stop && head[v] == ' ') ++v;
      return head.substr(v, stop - v);
    }
    pos = end;
  }
  return "";
}

}  // namespace

bool HttpClient::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ++connections_;
  buffer_.clear();
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  reusable_ = false;
}

Response HttpClient::Post(const std::string& path, const std::string& body) {
  std::string request = "POST " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return Send(request);
}

Response HttpClient::Get(const std::string& path) {
  return Send("GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

Response HttpClient::Send(const std::string& request) {
  // A reused connection may have been closed by the server while idle;
  // then nothing of the request was read, so one retry on a fresh
  // connection is safe even for mutations.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = reusable_ && fd_ >= 0;
    if (!reused && !Connect()) return Response{};
    reusable_ = false;
    if (!SendAll(fd_, request)) {
      Close();
      if (reused) continue;
      return Response{};
    }
    buffer_.clear();
    size_t header_end = std::string::npos;
    char chunk[65536];
    bool got_bytes = false;
    bool failed = false;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = Receive(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        failed = true;
        break;
      }
      got_bytes = true;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    if (failed) {
      Close();
      if (reused && !got_bytes) continue;
      return Response{};
    }
    const std::string head = buffer_.substr(0, header_end);
    Response response;
    const size_t sp = head.find(' ');
    response.code = sp == std::string::npos ? 0 : std::atoi(head.c_str() + sp + 1);
    const size_t length =
        static_cast<size_t>(std::strtoull(HeaderValue(head, "content-length").c_str(), nullptr, 10));
    const size_t body_start = header_end + 4;
    while (buffer_.size() - body_start < length) {
      const ssize_t n = Receive(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        Close();
        return Response{};
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    response.body = buffer_.substr(body_start, length);
    reusable_ = strcasecmp(HeaderValue(head, "connection").c_str(), "close") != 0;
    if (!reusable_) Close();
    return response;
  }
  return Response{};
}

bool ServerProcess::Start(const std::string& binary,
                          const std::string& data_dir) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  std::string dir_flag = "--data-dir=" + data_dir;
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>(dir_flag.c_str()), nullptr};
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // The server dies with the benchmark, even when the benchmark is
    // killed, so no run leaves a process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    return false;
  }
  stdout_fd_ = pipe_fds[0];
  // "kbserver listening on 127.0.0.1:<port>\n"
  std::string line;
  char c = 0;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    line.push_back(c);
  }
  const size_t colon = line.rfind(':');
  if (colon == std::string::npos) {
    Stop();
    return false;
  }
  port_ = std::atoi(line.c_str() + colon + 1);
  return port_ > 0;
}

bool ServerProcess::Stop() {
  bool clean = true;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    // A server stuck in a request past the grace period is killed, so no
    // run leaves a process behind.
    int status = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(kStopGraceSeconds);
    bool killed = false;
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_ || (done < 0 && errno != EINTR)) break;
      if (!killed && std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        killed = true;
        clean = false;
      }
      ::usleep(200);
    }
    clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  port_ = 0;
  return clean;
}

uint64_t ServerProcess::CpuNanos() const {
  const std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
  uint64_t total = 0;
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(task_dir + "/" + entry->d_name + "/schedstat");
    uint64_t on_cpu = 0;
    if (in >> on_cpu) total += on_cpu;
  }
  ::closedir(dir);
  return total;
}

uint64_t ServerProcess::PeakRssKb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace kbbench
