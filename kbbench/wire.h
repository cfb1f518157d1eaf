#ifndef KBBENCH_WIRE_H_
#define KBBENCH_WIRE_H_

// The client side of the kbserver wire protocol (docs/SERVER.md): one
// keep-alive HTTP/1.1 connection over loopback, and the kbserver child
// process it talks to.

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace kbbench {

struct Response {
  int code = 0;  // 0 when the connection failed
  std::string body;
};

// A blocking keep-alive client. When the server ends a connection
// (kbserver closes one every 1,024 requests, or after an idle timeout) the
// next request opens a new one; connections() counts every open.
class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  Response Post(const std::string& path, const std::string& body);
  Response Get(const std::string& path);
  void Close();
  uint64_t connections() const { return connections_; }

 private:
  Response Send(const std::string& request);
  bool Connect();

  int port_;
  int fd_ = -1;
  bool reusable_ = false;  // the last response kept the connection open
  uint64_t connections_ = 0;
  std::string buffer_;
};

// A kbserver child process on an ephemeral loopback port, started with
// default flags plus --data-dir. Stop() (also run by the destructor)
// sends SIGTERM and waits for the process to exit.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary` and waits for its "listening on" line.
  bool Start(const std::string& binary, const std::string& data_dir);
  // Returns true when the process exited with status 0.
  bool Stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // CPU time of all the server's threads so far, from
  // /proc/<pid>/task/*/schedstat, in nanoseconds.
  uint64_t CpuNanos() const;
  // VmHWM (peak resident set) in kB, from /proc/<pid>/status.
  uint64_t PeakRssKb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

}  // namespace kbbench

#endif  // KBBENCH_WIRE_H_
