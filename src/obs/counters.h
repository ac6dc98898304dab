#pragma once

/**
 * @file
 * The counter registry of the observability layer: hierarchical named
 * event counters ("smx.rdctrl.issued", "l2.miss", "drs.swaps") registered
 * once per simulated component and incremented through stable handles on
 * the hot path.
 *
 * Concurrency/determinism contract (see DESIGN.md, "Observability"):
 * each registry belongs to exactly one simulated unit (one Smx, one
 * controller), and a simulation runs on one host thread — so increments
 * are plain adds, never contended, and counter values are bit-identical
 * at any --jobs, exactly like the rest of SimStats. Registration
 * appends; handles stay valid for the registry's lifetime (deque
 * storage), so hot code touches no lock and no lookup.
 */

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace drs::obs {

/**
 * One named 64-bit event counter. Handles are obtained from a Counters
 * registry; increments are a single add.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * An order-independent snapshot of a registry (or a merge of several):
 * name → value, sorted by name so equality and merging are well-defined
 * across SMXs and runs.
 */
class CounterSnapshot
{
  public:
    /** Add @p value under @p name (summing with an existing entry). */
    void add(std::string_view name, std::uint64_t value);

    /** Value of @p name; 0 when absent. */
    std::uint64_t value(std::string_view name) const;

    /** True when @p name is present (even with value 0). */
    bool contains(std::string_view name) const;

    /** Sum all entries of @p other into this snapshot. */
    void merge(const CounterSnapshot &other);

    /** Sorted (name, value) pairs. */
    const std::vector<std::pair<std::string, std::uint64_t>> &entries() const
    {
        return entries_;
    }

    bool empty() const { return entries_.empty(); }

    /** Exact equality (determinism and consistency tests rely on it). */
    bool operator==(const CounterSnapshot &) const = default;

  private:
    /** Sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

/**
 * Append-only counter registry of one simulated unit.
 *
 * get() registers on first use and returns a stable reference; the hot
 * path holds the reference and increments without any registry access.
 * Registration itself is guarded by a mutex so a registry can be built
 * from helper objects without ceremony, but per the contract above all
 * increments happen on the simulation's one host thread.
 */
class Counters
{
  public:
    Counters() = default;
    Counters(const Counters &) = delete;
    Counters &operator=(const Counters &) = delete;

    /** Handle for @p name, registering it (at 0) on first use. */
    Counter &get(std::string_view name);

    /** Point-in-time copy of every registered counter. */
    CounterSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_; ///< registration + snapshot only
    std::deque<std::pair<std::string, Counter>> entries_; ///< stable addrs
};

} // namespace drs::obs
