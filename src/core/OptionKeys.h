//===- core/OptionKeys.h - The ToolOptions key table ----------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text face of ToolOptions: one declarative table of the semantic
/// tuning keys a client may set (`option KEY=VALUE` in an ssp-adaptd
/// request; addToolFlags routes the `ssp-adapt` flags through the same
/// parsers). Each row names the key, the field it sets, the accepted
/// range and whether the key feeds AnalysisCache construction. Three
/// things are generated from it:
///
///   - setOption: strict `KEY=VALUE` parsing with located error text;
///   - renderOptions: the canonical option text of the serve cache key
///     (every key, table order, defaults filled in — so two requests that
///     differ only in how they spell the defaults share one key);
///   - renderAnalysisOptions: the analysis subset, the warm-memo key.
///
/// Serving-level knobs (jobs, metrics, verification mode) are daemon
/// flags, not keys, so they can never split the cache key. DESIGN.md
/// "Serving architecture" lists the keys with types and defaults.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_OPTIONKEYS_H
#define SSP_CORE_OPTIONKEYS_H

#include "core/PostPassTool.h"

#include <string>

namespace ssp::support {
class FlagParser;
}

namespace ssp::core {

/// Parses `KEY=VALUE` into \p TO. On an unknown key or a malformed or
/// out-of-range value returns false with \p Msg set to
/// "option KEY: ..." and leaves \p TO unchanged.
bool setOption(ToolOptions &TO, const std::string &Key,
               const std::string &Value, std::string &Msg);

/// "KEY=VALUE\n" for every key, in table order.
std::string renderOptions(const ToolOptions &TO);

/// "KEY=VALUE\n" for the analysis keys only, in table order.
std::string renderAnalysisOptions(const ToolOptions &TO);

/// Registers ssp-adapt's tuning flags on \p P: `--no-chaining`,
/// `--spec-deps[=T]`, `--streams` and `--feedback[=N]`. Each sets its
/// fields of \p TO through the table's parsers, so the CLI accepts
/// exactly the values an `option KEY=VALUE` request does.
void addToolFlags(support::FlagParser &P, ToolOptions &TO);

} // namespace ssp::core

#endif // SSP_CORE_OPTIONKEYS_H
