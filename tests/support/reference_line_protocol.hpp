// Reference line-protocol parser: the split-then-unescape parser that
// tsdb::Point::from_line replaced, kept verbatim as a test oracle.  The
// fuzz tests hold the production parser to its verdicts, error codes and
// values bit for bit.
#pragma once

#include <string_view>

#include "tsdb/point.hpp"
#include "util/status.hpp"

namespace pmove::testing {

Expected<tsdb::Point> reference_from_line(std::string_view line);

}  // namespace pmove::testing
