#include "mem/memspace.hh"

#include "ckpt/serializer.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace imagine
{

void
MemorySpace::outOfBounds(const char *what, Addr wordAddr)
{
    // An out-of-range address used to silently allocate a fresh page;
    // now it is a diagnosable error naming the offending address.
    throw SimError(
        SimErrorKind::MemoryBounds,
        strfmt("%s of word address 0x%llx outside the 256 MB board "
               "address space (limit 0x%llx)",
               what, static_cast<unsigned long long>(wordAddr),
               static_cast<unsigned long long>(sizeWords)));
}

MemorySpace::Page &
MemorySpace::page(Addr wordAddr) const
{
    Page &p = pages_[wordAddr / pageWords];
    if (p.empty())
        p.assign(pageWords, 0);
    return p;
}

Word
MemorySpace::readWord(Addr wordAddr) const
{
    if (!inBounds(wordAddr))
        outOfBounds("read", wordAddr);
    return page(wordAddr)[wordAddr % pageWords];
}

void
MemorySpace::writeWord(Addr wordAddr, Word w)
{
    if (!inBounds(wordAddr))
        outOfBounds("write", wordAddr);
    page(wordAddr)[wordAddr % pageWords] = w;
}

void
MemorySpace::writeWords(Addr wordAddr, const std::vector<Word> &words)
{
    for (size_t i = 0; i < words.size(); ++i)
        writeWord(wordAddr + i, words[i]);
}

std::vector<Word>
MemorySpace::readWords(Addr wordAddr, size_t count) const
{
    std::vector<Word> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = readWord(wordAddr + i);
    return out;
}

void
MemorySpace::state(ckpt::Archive &ar)
{
    std::vector<Addr> touched;
    for (Addr idx = 0; idx < numPages; ++idx)
        if (!pages_[idx].empty())
            touched.push_back(idx);
    if (ar.loading())
        pages_.assign(numPages, Page{});
    ar.list(touched, [&](Addr &idx) {
        ar.u64(idx);
        ar.check(idx < numPages, "memory page out of range");
        ar.vec(pages_[idx]);
        ar.check(pages_[idx].size() == pageWords, "memory page size");
    }, numPages);
}

} // namespace imagine
