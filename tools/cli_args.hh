/**
 * @file
 * Minimal command-line flag parsing for the pka CLI: positional operands
 * plus --flag / --flag value options. Numeric values go through the
 * shared hardened parsers in common/parse.hh (the same rules the serve
 * protocol enforces); at the CLI layer a malformed value is a
 * configuration error and therefore fatal.
 */

#ifndef PKA_TOOLS_CLI_ARGS_HH
#define PKA_TOOLS_CLI_ARGS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace pka::tools
{

/** Parsed command line: positionals + string-valued flags. */
class CliArgs
{
  public:
    /**
     * Parse argv[first..). Flags start with "--"; a flag named in
     * `boolean_flags` consumes no value, a flag named in `value_flags`
     * consumes the next argument, and any other flag is fatal, so a
     * typo or a retired flag cannot be silently ignored.
     */
    CliArgs(int argc, char **argv, int first,
            const std::vector<std::string> &boolean_flags,
            const std::vector<std::string> &value_flags)
    {
        auto listed = [](const std::vector<std::string> &names,
                         const std::string &f) {
            for (const auto &n : names)
                if (n == f)
                    return true;
            return false;
        };
        for (int i = first; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                std::string name = a.substr(2);
                if (listed(boolean_flags, name)) {
                    flags_[name] = "1";
                } else if (listed(value_flags, name)) {
                    if (i + 1 >= argc)
                        pka::common::fatal("flag --" + name +
                                           " needs a value");
                    flags_[name] = argv[++i];
                } else {
                    pka::common::fatal("unknown flag --" + name);
                }
            } else {
                positionals_.push_back(std::move(a));
            }
        }
    }

    /** Positional operands in order. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** True if the flag was given. */
    bool has(const std::string &name) const
    {
        return flags_.count(name) > 0;
    }

    /** Flag value or default. */
    std::string
    get(const std::string &name, const std::string &def = "") const
    {
        auto it = flags_.find(name);
        return it == flags_.end() ? def : it->second;
    }

    /** Numeric flag value or default; fatal on malformed numbers. */
    double
    getNum(const std::string &name, double def) const
    {
        auto it = flags_.find(name);
        if (it == flags_.end())
            return def;
        return require(name, pka::common::parseNum(it->second));
    }

    /**
     * Numeric flag required to lie in [lo, hi]; fatal outside (NaN
     * included). The default is returned unchecked, so callers may keep
     * sentinel defaults outside the user-facing range.
     */
    double
    getNumInRange(const std::string &name, double def, double lo,
                  double hi) const
    {
        auto it = flags_.find(name);
        if (it == flags_.end())
            return def;
        return require(name,
                       pka::common::parseNumInRange(it->second, lo, hi));
    }

    /** Strictly positive numeric flag in (0, hi]; fatal otherwise. */
    double
    getPositiveNum(const std::string &name, double def,
                   double hi = std::numeric_limits<double>::infinity())
        const
    {
        auto it = flags_.find(name);
        if (it == flags_.end())
            return def;
        return require(name,
                       pka::common::parsePositiveNum(it->second, hi));
    }

    /**
     * Unsigned-integer flag in [lo, hi]; fatal on signs, fractions,
     * trailing garbage or out-of-range values.
     */
    uint64_t
    getUint(const std::string &name, uint64_t def, uint64_t lo = 0,
            uint64_t hi = std::numeric_limits<uint64_t>::max()) const
    {
        auto it = flags_.find(name);
        if (it == flags_.end())
            return def;
        return require(name, pka::common::parseUint(it->second, lo, hi));
    }

  private:
    /** Unwrap a parse result, turning its typed error fatal with the
     *  flag name attached (the CLI's legacy contract). */
    template <typename T>
    static T
    require(const std::string &name, pka::common::Expected<T> v)
    {
        if (!v.ok())
            pka::common::fatal("flag --" + name + " " +
                               v.error().message);
        return v.value();
    }

    std::vector<std::string> positionals_;
    std::map<std::string, std::string> flags_;
};

} // namespace pka::tools

#endif // PKA_TOOLS_CLI_ARGS_HH
