#pragma once

/**
 * @file
 * The `drs` analyzer's subcommands and the file handling they share.
 * Each subcommand gets the arguments from its own name on and returns
 * the exit status: 0 = done, 1 = the input failed its check, 2 = usage
 * or I/O error.
 */

#include <cstddef>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace drs::tools {

int profileMain(int argc, char **argv);  ///< drs_profile.cc
int eventsMain(int argc, char **argv);   ///< drs_events.cc
int journalMain(int argc, char **argv);  ///< drs_journal.cc
int tracecatMain(int argc, char **argv); ///< drs_tracecat.cc

/** A JSON document read whole from a file. */
struct JsonFile
{
    std::optional<obs::Json> doc; ///< empty when unreadable or malformed
    bool opened = false;          ///< whether the file could be read
    std::string error;            ///< the parser's reason when malformed
};

/** Read and parse the whole JSON document at @p path. */
inline JsonFile
loadJsonFile(const std::string &path)
{
    JsonFile file;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return file;
    file.opened = true;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    file.doc = obs::Json::parse(buffer.str(), &file.error);
    return file;
}

/**
 * The torn-tail rule of the JSONL files the fleet appends to: a writer
 * killed mid-append leaves at most one malformed line, and only as the
 * last line of its file. Feeds each non-empty line of @p in, with its
 * 1-based number, to @p record, which returns false for a malformed
 * line, and calls @p pastTail with the number of every line that
 * follows a malformed one.
 *
 * @return the number of malformed lines; the file obeys the rule when
 *         it is at most 1 and pastTail was never called
 */
template <typename Record, typename PastTail>
std::size_t
readJsonl(std::istream &in, Record &&record, PastTail &&pastTail)
{
    std::size_t malformed = 0;
    std::size_t number = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++number;
        if (line.empty())
            continue;
        if (malformed > 0)
            pastTail(number);
        if (!record(line, number))
            ++malformed;
    }
    return malformed;
}

} // namespace drs::tools
