#include "mem/address_space.hh"

#include <sys/mman.h>

#include <new>

namespace scusim::mem
{

void *
mapZeroedPages(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
unmapPages(void *p, std::size_t bytes)
{
    munmap(p, bytes);
}

} // namespace scusim::mem
