/**
 * @file
 * Entry point of the `drs` analyzer.
 *
 * Usage: drs {profile|events|journal|tracecat} ARGS...
 */

#include <cstdio>
#include <cstring>

#include "drs.h"

int
main(int argc, char **argv)
{
    static const struct
    {
        const char *name;
        int (*run)(int, char **);
    } kCommands[] = {
        {"profile", drs::tools::profileMain},
        {"events", drs::tools::eventsMain},
        {"journal", drs::tools::journalMain},
        {"tracecat", drs::tools::tracecatMain},
    };
    if (argc >= 2)
        for (const auto &command : kCommands)
            if (std::strcmp(argv[1], command.name) == 0)
                return command.run(argc - 1, argv + 1);
    std::fprintf(stderr,
                 "usage: drs {profile|events|journal|tracecat} ARGS...\n");
    return 2;
}
