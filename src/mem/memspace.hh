/**
 * @file
 * Functional backing store for the off-chip Imagine memory space
 * (256 MB of SDRAM on the development board): a flat table of its 1024
 * pages, each allocated on first touch so sparse address use stays
 * cheap.
 */

#ifndef IMAGINE_MEM_MEMSPACE_HH
#define IMAGINE_MEM_MEMSPACE_HH

#include <vector>

#include "sim/types.hh"

namespace imagine
{

namespace ckpt
{
class Archive;
} // namespace ckpt

/** Lazily-paged word-addressable memory image. */
class MemorySpace
{
  public:
    /** Board address space: 256 MB of SDRAM = 2^26 words. */
    static constexpr Addr sizeWords = Addr(1) << 26;

    /** True when @p wordAddr lies inside the board address space. */
    static bool inBounds(Addr wordAddr) { return wordAddr < sizeWords; }

    Word readWord(Addr wordAddr) const;
    void writeWord(Addr wordAddr, Word w);

    /** Bulk helpers for loading workload data. */
    void writeWords(Addr wordAddr, const std::vector<Word> &words);
    std::vector<Word> readWords(Addr wordAddr, size_t count) const;

    /**
     * Checkpoint every allocated page in page-index order.  Restore
     * replaces the full page set.
     */
    void state(ckpt::Archive &ar);

  private:
    static constexpr Addr pageWords = 1 << 16;
    static constexpr Addr numPages = sizeWords / pageWords;

    /** Raise a MemoryBounds SimError for an out-of-range access. */
    [[noreturn]] static void outOfBounds(const char *what, Addr wordAddr);
    using Page = std::vector<Word>;
    /** Indexed by page; empty until first touched. */
    mutable std::vector<Page> pages_ = std::vector<Page>(numPages);

    Page &page(Addr wordAddr) const;
};

} // namespace imagine

#endif // IMAGINE_MEM_MEMSPACE_HH
