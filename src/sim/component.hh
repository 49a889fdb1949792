/**
 * @file
 * Component: the engine-side interface every hardware module of a
 * session implements (ClusterArray, Srf, MemorySystem,
 * StreamController, HostProcessor).
 *
 * A component is a self-contained piece of one ImagineSystem session:
 * it advances on tick(), publishes every counter it owns on a
 * StatsRegistry under its own name prefix, and can zero those counters
 * between runs.  Nothing a component touches is shared across
 * sessions, which is what makes whole systems re-entrant and lets
 * SimBatch (sim/runner.hh) run many of them concurrently.
 *
 * ImagineSystem's cycle loop still calls each module's concrete tick
 * so the hot path stays devirtualized; the interface exists for the
 * uniform stats/reset/diagnostics surface.
 */

#ifndef IMAGINE_SIM_COMPONENT_HH
#define IMAGINE_SIM_COMPONENT_HH

#include "sim/types.hh"

namespace imagine
{

class StatsRegistry;
namespace ckpt
{
class Archive;
} // namespace ckpt

/** Horizon value meaning "no self-generated event, ever". */
inline constexpr Cycle kForever = ~Cycle(0);

/** One hardware module of a session. */
class Component
{
  public:
    virtual ~Component() = default;

    /** Stable short name; also the stat-name prefix ("cluster", ...). */
    virtual const char *componentName() const = 0;
    /** Advance one core cycle. */
    virtual void tick(Cycle now) = 0;
    /** Register every counter on @p reg under componentName(). */
    virtual void registerStats(StatsRegistry &reg) = 0;
    /** Zero all counters (does not touch architectural state). */
    virtual void resetStats() = 0;

    // --- event horizon (DESIGN.md section 8) ---------------------------
    /**
     * Earliest cycle t > @p now at which this component's tick(t) can do
     * anything beyond its linear idle effects (the per-cycle counter and
     * cursor updates that skipIdle() folds), given that no other
     * component changes shared state before t.  kForever when only an
     * external event can wake the component.  @p now is the cycle most
     * recently ticked.  Returning a too-early cycle costs performance
     * only; returning a too-late cycle breaks cycle accuracy.
     */
    virtual Cycle nextEventAfter(Cycle now) const
    {
        return now + 1;
    }
    /**
     * Fold the idle effects of @p span consecutive skipped ticks at
     * cycles [@p from, @p from + @p span), exactly as if tick() had run
     * for each.  Only called when every component's horizon clears the
     * span.
     */
    virtual void skipIdle(Cycle from, uint64_t span)
    {
        (void)from;
        (void)span;
    }

    // --- checkpoint/restore (DESIGN.md section 11) ---------------------
    /**
     * Save or restore all architectural and engine state through the
     * current checkpoint section: each field is named once, and the
     * archive writes it or reads it back.  Counters registered on the
     * StatsRegistry are captured centrally by the engine, not here;
     * everything else a resumed run reads must be covered.  A restore
     * runs on an identically-configured component after the engine has
     * replayed session setup (program load, kernel registration), and
     * overlays the mid-run state so the next tick() continues
     * bit-identically.  On load, every count, index, size and
     * enumerator that later code dereferences or switches on is checked
     * against the session's shape (ckpt::Archive::check), so a corrupt
     * snapshot fails as SimError(Fatal) instead of crashing.
     */
    virtual void state(ckpt::Archive &ar) = 0;

  protected:
    Component() = default;
    Component(const Component &) = default;
    Component &operator=(const Component &) = default;
};

} // namespace imagine

#endif // IMAGINE_SIM_COMPONENT_HH
