#include "util/ledger.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {

LedgerReader::LedgerReader(std::string path, std::string kind, int version,
                           std::vector<std::string> required)
    : _path(std::move(path)), _kind(std::move(kind)), _newest(version),
      _required(std::move(required))
{}

bool
LedgerReader::feed(std::string_view raw)
{
    ++_line;
    const std::string line = trim(raw);
    if (line.empty())
        return false;
    if (line.front() == '#') {
        const std::vector<std::string> words = splitWhitespace(line);
        if (words.size() >= 3 && words[1] == "gest-" + _kind &&
            words[2].size() > 1 && words[2].front() == 'v') {
            const std::int64_t version =
                parseInt(words[2].substr(1), where("schema version"));
            if (version > _newest)
                fatal("'", _path, "' is schema gest-", _kind, " v",
                      version, "; this build reads up to v", _newest,
                      " — read it with a newer gest");
            _version = static_cast<int>(version);
        }
        return false;
    }
    if (_header.empty()) {
        std::vector<std::string> header = split(line, ',');
        if (header.front() != "generation")
            fatal("'", _path, "' does not look like a gest ", _kind,
                  " file: expected a header starting with 'generation', "
                  "got '", line, "'");
        for (const std::string& name : _required) {
            if (std::find(header.begin(), header.end(), name) ==
                header.end())
                fatal("'", _path, "' header lacks the required column '",
                      name, "': '", line, "'");
        }
        _header = std::move(header);
        return false;
    }
    _row = split(line, ',');
    if (_row.size() < _header.size())
        fatal("'", _path, "' is truncated at line ", _line, " (",
              _row.size(), " of ", _header.size(),
              " columns): the run may have been interrupted mid-write; "
              "delete that line to read the complete rows");
    return true;
}

void
LedgerReader::read(std::string_view text,
                   const std::function<void()>& on_row)
{
    for (const std::string& line : split(text, '\n')) {
        if (feed(line))
            on_row();
    }
}

int
LedgerReader::column(std::string_view name) const
{
    const auto it = std::find(_header.begin(), _header.end(), name);
    return it == _header.end() ? -1
                               : static_cast<int>(it - _header.begin());
}

const std::string&
LedgerReader::text(std::string_view name) const
{
    static const std::string absent;
    const int index = column(name);
    return index < 0 ? absent : _row[static_cast<std::size_t>(index)];
}

double
LedgerReader::number(std::string_view name) const
{
    return column(name) < 0 ? 0.0 : parseDouble(text(name), where(name));
}

std::int64_t
LedgerReader::integer(std::string_view name) const
{
    return column(name) < 0 ? 0 : parseInt(text(name), where(name));
}

std::uint64_t
LedgerReader::count(std::string_view name) const
{
    return column(name) < 0 ? 0 : parseUint64(text(name), where(name));
}

void
LedgerReader::fail(std::string_view message) const
{
    fatal("'", _path, "' line ", _line, ": ", message);
}

std::string
LedgerReader::where(std::string_view name) const
{
    return detail::concat(name, " ('", _path, "' line ", _line, ")");
}

} // namespace gest
