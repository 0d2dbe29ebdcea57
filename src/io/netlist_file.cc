#include "src/io/netlist_file.hh"

#include <fstream>
#include <iterator>

#include "src/io/netlist_json.hh"
#include "src/io/verilog_import.hh"
#include "src/netlist/verilog_export.hh"

namespace bespoke
{

namespace
{

bool
isVerilog(const std::string &path)
{
    return path.size() >= 2 && path.compare(path.size() - 2, 2, ".v") == 0;
}

} // namespace

bool
readTextFile(const std::string &path, std::string *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot read '" + path + "'";
        return false;
    }
    out->assign(std::istreambuf_iterator<char>(in), {});
    return true;
}

bool
readNetlistFile(const std::string &path, Netlist *out, std::string *err)
{
    std::string text;
    if (!readTextFile(path, &text, err))
        return false;
    if (isVerilog(path)) {
        VerilogImportResult res = importVerilog(text);
        if (!res.ok) {
            *err = res.format(path);
            return false;
        }
        *out = std::move(res.netlist);
        return true;
    }
    NetlistJsonResult res = netlistFromJsonText(text);
    if (!res.ok) {
        *err = path + ": " + res.error;
        return false;
    }
    *out = std::move(res.netlist);
    return true;
}

bool
writeNetlistFile(const Netlist &nl, const std::string &path,
                 const std::string &module_name, std::string *err)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        *err = "cannot write '" + path + "'";
        return false;
    }
    if (isVerilog(path))
        exportVerilog(nl, module_name, out);
    else
        out << netlistToJsonText(nl) << "\n";
    if (!out) {
        *err = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace bespoke
