#pragma once

/**
 * @file
 * Cooperative cancellation and deadlines for long-running work. A
 * CancelToken is shared between a controller (sweep runner, signal
 * handler, test) and the workers it governs: workers poll it at cheap
 * points (the cycle engines check at every simulated event) and throw
 * Cancelled / DeadlineExceeded when asked to stop. Header-only and
 * std-only, so the simulator core can poll tokens without growing a
 * dependency.
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace drs::exec {

/** Thrown by CancelToken::poll() after requestCancel(). */
class Cancelled : public std::runtime_error
{
  public:
    Cancelled() : std::runtime_error("task cancelled") {}
    explicit Cancelled(const std::string &what) : std::runtime_error(what) {}
};

/** Thrown by CancelToken::poll() once the deadline has passed. */
class DeadlineExceeded : public std::runtime_error
{
  public:
    DeadlineExceeded() : std::runtime_error("task deadline exceeded") {}
    explicit DeadlineExceeded(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Shared stop/deadline flag. requestCancel() and cancelled() are
 * thread-safe; setDeadline()/setTimeout() must happen-before handing
 * the token to workers (the deadline is published through a release
 * store on hasDeadline_).
 *
 * Tokens can be chained: setParent() links a token to a longer-lived
 * one (a sweep-wide or process-wide stop flag), and cancellation,
 * deadlines and poll() then observe both. Used to fan a single
 * coordinator-level cancel (e.g. a SIGTERM handler) out through the
 * short-lived per-attempt tokens the sweep runner creates.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Ask every holder of this token to stop at its next poll. */
    void requestCancel() { cancelled_.store(true, std::memory_order_release); }

    bool cancelled() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        return parent_ != nullptr && parent_->cancelled();
    }

    /**
     * Chain this token under @p parent: cancellation or an expired
     * deadline on the parent stops holders of this token too. Must
     * happen-before handing the token to workers; the parent must
     * outlive this token. Null detaches.
     */
    void setParent(const CancelToken *parent) { parent_ = parent; }

    const CancelToken *parent() const { return parent_; }

    /** Absolute deadline; polls past it throw DeadlineExceeded. */
    void setDeadline(Clock::time_point deadline)
    {
        deadline_ = deadline;
        hasDeadline_.store(true, std::memory_order_release);
    }

    /** Relative deadline in seconds from now; <= 0 means none. */
    void setTimeout(double seconds)
    {
        if (seconds <= 0.0)
            return;
        setDeadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
    }

    bool hasDeadline() const
    {
        if (hasDeadline_.load(std::memory_order_acquire))
            return true;
        return parent_ != nullptr && parent_->hasDeadline();
    }

    /**
     * True once the deadline (own or a chained parent's) has passed.
     * Reads the clock — amortize in hot loops (the engines check once
     * per 1024 simulated cycles); cancelled() is a plain atomic load
     * plus at most one pointer chase and can be checked every cycle.
     */
    bool deadlineExpired() const
    {
        if (hasDeadline_.load(std::memory_order_acquire) &&
            Clock::now() >= deadline_)
            return true;
        return parent_ != nullptr && parent_->deadlineExpired();
    }

    /** Throw Cancelled / DeadlineExceeded when asked to stop. */
    void poll() const
    {
        if (cancelled())
            throw Cancelled();
        if (deadlineExpired())
            throw DeadlineExceeded();
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<bool> hasDeadline_{false};
    Clock::time_point deadline_{};
    const CancelToken *parent_ = nullptr;
};

} // namespace drs::exec
