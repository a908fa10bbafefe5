/**
 * @file
 * The one reader of the run directory's CSV ledgers (history, lineage,
 * analytics, coverage, digests, alerts) and so one policy for them all
 * (docs/observability.md, "Run directory"): lines are trimmed (CRLF
 * reads like LF); a `# gest-<kind> vN` line newer than the reader's
 * version is rejected; other `#` lines are comments; the header starts
 * with `generation`; columns are found by name, so a column an older
 * file lacks reads as absent; a row shorter than the header is
 * truncated. Every error is a fatal() naming the file, and the line for
 * row errors. Each module keeps only its own column names.
 */

#ifndef GEST_UTIL_LEDGER_HH
#define GEST_UTIL_LEDGER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gest {

class LedgerReader
{
  public:
    /**
     * @param path     the file, as errors name it
     * @param kind     the `<kind>` of its `# gest-<kind> vN` line
     * @param version  the newest schema version this build reads
     * @param required columns the header must have besides generation
     */
    LedgerReader(std::string path, std::string kind, int version,
                 std::vector<std::string> required = {});

    /**
     * Consume one line (without its newline). @return true when it is
     * a data row, which the cell accessors then read.
     */
    bool feed(std::string_view line);

    /** Feed every line of @p text, calling @p on_row per data row. */
    void read(std::string_view text, const std::function<void()>& on_row);

    const std::string& path() const { return _path; }

    /** The file's schema version; 0 when it has no schema line. */
    int version() const { return _version; }

    bool hasHeader() const { return !_header.empty(); }

    /** Column index by name; -1 when the file predates the column. */
    int column(std::string_view name) const;

    // Cells of the current row by column name. An absent column reads
    // as "" or 0; a malformed number is fatal, naming the file, the
    // line and the column.
    const std::string& text(std::string_view name) const;
    double number(std::string_view name) const;
    std::int64_t integer(std::string_view name) const;
    std::uint64_t count(std::string_view name) const;

    /** "<name> ('<path>' line N)", for a message about a cell. */
    std::string where(std::string_view name) const;

    /** fatal() with @p message, naming the file and the current line. */
    [[noreturn]] void fail(std::string_view message) const;

  private:
    std::string _path;
    std::string _kind;
    int _newest;
    std::vector<std::string> _required;

    int _version = 0;
    int _line = 0;
    std::vector<std::string> _header;
    std::vector<std::string> _row;
};

} // namespace gest

#endif // GEST_UTIL_LEDGER_HH
