#include "rlc/svc/serve.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rlc/obs/trace.hpp"
#include "wire.hpp"

namespace rlc::svc {

Server::Server(Session& session, const ServeOptions& opts)
    : session_(session), opts_(opts) {}

std::string Server::handle_line(const std::string& line) {
  return wire::execute_and_render(session_, wire::parse_line(line),
                                  session_.threads());
}

std::vector<std::string> Server::handle_lines(
    const std::vector<std::string>& lines) {
  // Each line is stamped as it is parsed, so a query that waits behind
  // earlier lines of its block reports that wait as queue time.
  std::vector<wire::Parsed> parsed;
  std::vector<std::int64_t> received;
  parsed.reserve(lines.size());
  received.reserve(lines.size());
  for (const std::string& line : lines) {
    received.push_back(obs::Tracer::now_ns());
    parsed.push_back(wire::parse_line(line));
  }
  return wire::execute_block(
      session_, std::move(parsed), received,
      static_cast<std::size_t>(std::max(opts_.max_batch, 1)),
      session_.threads());
}

}  // namespace rlc::svc
