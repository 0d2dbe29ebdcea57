/**
 * @file
 * Netlist files, format by extension: `.v` is structural Verilog
 * (verilog_import.hh / verilog_export.hh), anything else the canonical
 * JSON document (netlist_json.hh). Every tool and the job scheduler
 * read and write netlist files through this pair, so the extension rule
 * lives in one place. Failures return false with a diagnostic that
 * names the file; nothing here is fatal.
 */

#ifndef BESPOKE_IO_NETLIST_FILE_HH
#define BESPOKE_IO_NETLIST_FILE_HH

#include <string>

#include "src/netlist/netlist.hh"

namespace bespoke
{

/** Read a whole file as bytes ("cannot read '<path>'" on failure). */
bool readTextFile(const std::string &path, std::string *out,
                  std::string *err);

/** Import (and validate) a netlist file. */
bool readNetlistFile(const std::string &path, Netlist *out,
                     std::string *err);

/** Export a netlist file; `module_name` names the Verilog module. */
bool writeNetlistFile(const Netlist &nl, const std::string &path,
                      const std::string &module_name, std::string *err);

} // namespace bespoke

#endif // BESPOKE_IO_NETLIST_FILE_HH
