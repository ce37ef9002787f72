#pragma once

/// \file response_reference.hpp
/// The NDJSON response of a query as the service built it before it kept
/// rendered answer bytes: every member of the result through io::Json::set,
/// nested into an io::Json envelope (schema, version, id) with its status
/// and code.  The reference the one-buffer renderer (wire::render_query,
/// QueryResult::append_members) is pinned to byte for byte.

#include <string>

#include "../../src/svc/src/wire.hpp"
#include "rlc/base/status.hpp"
#include "rlc/io/json.hpp"
#include "rlc/svc/query.hpp"

namespace rlc::svc::reference {

/// QueryResult::to_json() rendered member by member from the fields.
io::Json reference_result_json(const QueryResult& r);

/// The response line: envelope(id) + status + code + result or message.
std::string reference_response(const wire::RequestId& id,
                               const rlc::StatusOr<QueryResult>& r);

/// The response line of any other ok result.
std::string reference_ok(const wire::RequestId& id, const io::Json& result);

}  // namespace rlc::svc::reference
