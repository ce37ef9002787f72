#include "rlc/svc/serve.hpp"

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
  const std::size_t max_batch =
      opts_.max_batch > 0 ? static_cast<std::size_t>(opts_.max_batch) : 1;
  std::vector<std::string> out;
  out.reserve(lines.size());

  // Each line runs at its place in the block: a run of consecutive queries
  // (at most max_batch) is one submit_batch, answered in input order, and
  // any other line runs between the queries before it and those after it,
  // so a trace start covers the queries that follow it and a scrape counts
  // only the queries before it.
  std::vector<QueryRequest> reqs;
  std::vector<wire::RequestId> ids;
  const auto answer_run = [&] {
    if (reqs.empty()) return;
    std::vector<rlc::StatusOr<QueryResult>> results =
        session_.submit_batch(reqs);
    for (std::size_t j = 0; j < results.size(); ++j) {
      out.push_back(wire::render_query(ids[j], results[j]));
    }
    reqs.clear();
    ids.clear();
  };
  for (const std::string& line : lines) {
    wire::Parsed p = wire::parse_line(line);
    if (p.op == wire::Parsed::Op::kQuery) {
      reqs.push_back(std::move(p.query));
      ids.push_back(std::move(p.id));
      if (reqs.size() == max_batch) answer_run();
      continue;
    }
    answer_run();
    out.push_back(
        wire::execute_and_render(session_, std::move(p), session_.threads()));
  }
  answer_run();
  return out;
}

}  // namespace rlc::svc
