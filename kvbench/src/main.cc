#include <cstdio>

#include "harness.h"

int
main(int argc, char** argv)
{
    return kvbench::runCommand(argc, argv, stdout);
}
