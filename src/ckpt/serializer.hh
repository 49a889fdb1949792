/**
 * @file
 * Versioned checkpoint serialization (DESIGN.md section 11).
 *
 * A checkpoint is a sectioned binary image: a fixed header (magic,
 * format version) followed by named, length-prefixed sections - one per
 * component ("host", "sc", "cluster", "mem", "srf") plus "meta"
 * (config/program fingerprint used to reject mismatched restores),
 * "run" (cycle-loop state and stats snapshots) and "faults" (RNG
 * cursors, armed-site accounting, the fault trace).  Crash snapshots
 * append a "report" section carrying the serialized HangReport and the
 * SimError kind/message.
 *
 * Sections make the format greppable by tools that do not understand
 * component internals: the bisect driver (bisect.hh) compares the raw
 * bytes of the architectural sections between a faulty and a fault-free
 * run without deserializing either.  Within a section, values are
 * written field-by-field in declaration order by each component's
 * state(Archive &), the one field list that both writes a snapshot and
 * reads it back.  Every read is bounds-checked against the section
 * length, every list count against the section remainder, and every
 * loaded index, size or enumerator that later code dereferences or
 * switches on against the restoring session's shape, so a truncated,
 * version-skewed or corrupted file fails with SimError(Fatal)
 * "checkpoint: ..." instead of crashing or reading garbage.
 *
 * Versioning rule: any change to a section's field sequence bumps
 * kVersion; there is no in-place migration (checkpoints are short-lived
 * debugging artifacts, not archival state).  The byte encoding is
 * host-endian and host-width - a checkpoint restores on the machine
 * family that wrote it, which is the only supported use.
 */

#ifndef IMAGINE_CKPT_SERIALIZER_HH
#define IMAGINE_CKPT_SERIALIZER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace imagine
{

namespace ckpt
{

/** File magic ("IMCK") and current format version. */
inline constexpr uint32_t kMagic = 0x4b434d49u;
/** v2: the "run" section carries stat names so restore is name-matched
 *  (a trace-on session may restore a trace-off checkpoint and vice
 *  versa; see ImagineSystem::restoreCheckpoint).  v3: the "run" section
 *  drops the skip-attempt hold flag.  v4: the "cluster" section keeps
 *  per-kernel state by kernel id (no LRU clock, no accumulator node
 *  ids) and the "sc" section drops the microcode size table. */
inline constexpr uint32_t kVersion = 4;

/** Builds a checkpoint image section by section. */
class Serializer
{
  public:
    /** Begin a new section; closes the previous one. */
    void section(const std::string &name);

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u16(uint16_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void i32(int32_t v) { raw(&v, sizeof(v)); }
    void i64(int64_t v) { raw(&v, sizeof(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Bit-exact double (no text round-trip). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }
    void bytes(const void *p, size_t n) { raw(p, n); }
    /** Length-prefixed vector of trivially-copyable elements. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
    }

    /** Assemble the full file image (header + all sections). */
    std::vector<uint8_t> finish() const;
    /** finish() + atomic-ish write (tmp file + rename). */
    void writeFile(const std::string &path) const;

  private:
    void raw(const void *p, size_t n);

    struct Section
    {
        std::string name;
        std::vector<uint8_t> payload;
    };

    std::vector<Section> sections_;
};

/** Reads a checkpoint image; every read is section-bounds-checked. */
class Deserializer
{
  public:
    /** Parse @p image; throws SimError(Fatal) on bad magic/version. */
    explicit Deserializer(std::vector<uint8_t> image);
    static Deserializer fromFile(const std::string &path);

    uint32_t version() const { return version_; }
    /** Name of the section the cursor is in. */
    const std::string &sectionName() const { return current_; }

    bool hasSection(const std::string &name) const;
    /** Position the cursor at the start of section @p name. */
    void section(const std::string &name);

    uint8_t u8() { uint8_t v; raw(&v, sizeof(v)); return v; }
    uint16_t u16() { uint16_t v; raw(&v, sizeof(v)); return v; }
    uint32_t u32() { uint32_t v; raw(&v, sizeof(v)); return v; }
    uint64_t u64() { uint64_t v; raw(&v, sizeof(v)); return v; }
    int32_t i32() { int32_t v; raw(&v, sizeof(v)); return v; }
    int64_t i64() { int64_t v; raw(&v, sizeof(v)); return v; }
    bool b() { return u8() != 0; }
    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    std::string str();
    void bytes(void *p, size_t n) { raw(p, n); }
    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> v(checkedCount(u64(), sizeof(T)));
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
        return v;
    }

    /** Reject counts whose payload cannot fit the section remainder. */
    size_t checkedCount(uint64_t count, size_t elemSize) const;

  private:
    friend std::vector<struct RawSection>
    readSections(const std::string &path);

    void raw(void *p, size_t n);

    uint32_t version_ = 0;
    std::vector<uint8_t> image_;
    struct Span
    {
        size_t begin = 0;
        size_t end = 0;
    };
    std::vector<std::pair<std::string, Span>> sections_;
    std::unordered_map<std::string, size_t> index_;
    size_t cursor_ = 0;
    size_t sectionEnd_ = 0;
    std::string current_;
};

/**
 * One field list for both directions.  A component's state(Archive &)
 * names each field once (`ar.u32(c.offset)`); the archive writes the
 * field through a Serializer or overwrites it from a Deserializer, so
 * the writer and the reader cannot drift apart.  Load-only work
 * (validation, derived state, re-binding pointers) sits under
 * `if (ar.loading())`; check() is a no-op when saving.
 */
class Archive
{
  public:
    explicit Archive(Serializer &s) : out_(&s) {}
    explicit Archive(Deserializer &d) : in_(&d) {}

    bool loading() const { return in_ != nullptr; }

    /** Begin (save) or seek to (load) section @p name. */
    void
    section(const std::string &name)
    {
        if (in_)
            in_->section(name);
        else
            out_->section(name);
    }

    void u8(uint8_t &v) { io(v, &Deserializer::u8, &Serializer::u8); }
    void u16(uint16_t &v) { io(v, &Deserializer::u16, &Serializer::u16); }
    void u32(uint32_t &v) { io(v, &Deserializer::u32, &Serializer::u32); }
    void u64(uint64_t &v) { io(v, &Deserializer::u64, &Serializer::u64); }
    void i32(int32_t &v) { io(v, &Deserializer::i32, &Serializer::i32); }
    void i64(int64_t &v) { io(v, &Deserializer::i64, &Serializer::i64); }
    void b(bool &v) { io(v, &Deserializer::b, &Serializer::b); }
    void f64(double &v) { io(v, &Deserializer::f64, &Serializer::f64); }
    void
    str(std::string &v)
    {
        if (in_)
            v = in_->str();
        else
            out_->str(v);
    }
    template <typename T>
    void
    vec(std::vector<T> &v)
    {
        if (in_)
            v = in_->vec<T>();
        else
            out_->vec(v);
    }
    /** An enumerator stored as one byte; on load, one past @p last is
     *  rejected. */
    template <typename E>
    void
    e8(E &v, E last)
    {
        uint8_t raw = static_cast<uint8_t>(v);
        u8(raw);
        check(raw <= static_cast<uint8_t>(last), "enumerator out of range");
        v = static_cast<E>(raw);
    }

    /**
     * A list: its element count (u64), then @p each on every element.
     * On load the container is resized to the count read, which must
     * fit the section remainder and not exceed @p limit.
     */
    template <typename C, typename F>
    void
    list(C &c, F &&each, size_t limit = SIZE_MAX)
    {
        uint64_t n = c.size();
        u64(n);
        if (in_) {
            check(in_->checkedCount(n, 1) <= limit, "list too long");
            c = C(static_cast<size_t>(n));
        }
        for (auto &x : c)
            each(x);
    }

    /** On load, reject the image unless @p ok: SimError(Fatal)
     *  "checkpoint: section "<name>": <what>". */
    void
    check(bool ok, const char *what) const
    {
        if (in_ && !ok)
            fail(what);
    }

  private:
    template <typename T>
    void
    io(T &v, T (Deserializer::*read)(), void (Serializer::*write)(T))
    {
        if (in_)
            v = (in_->*read)();
        else
            (out_->*write)(v);
    }
    [[noreturn]] void fail(const char *what) const;

    Serializer *out_ = nullptr;
    Deserializer *in_ = nullptr;
};

/** One raw section of a checkpoint file (bisect / tooling view). */
struct RawSection
{
    std::string name;
    std::vector<uint8_t> payload;
};

/** Parse @p path into raw sections without interpreting payloads. */
std::vector<RawSection> readSections(const std::string &path);

} // namespace ckpt
} // namespace imagine

#endif // IMAGINE_CKPT_SERIALIZER_HH
