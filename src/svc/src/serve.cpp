#include "rlc/svc/serve.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

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
  std::vector<wire::Parsed> parsed;
  parsed.reserve(lines.size());
  for (const std::string& line : lines) {
    parsed.push_back(wire::parse_line(line));
  }
  return wire::execute_block(
      session_, std::move(parsed), {},
      static_cast<std::size_t>(std::max(opts_.max_batch, 1)),
      session_.threads());
}

}  // namespace rlc::svc
