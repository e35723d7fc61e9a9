// Environment-resolved settings of the shared scheduling core: the
// idle-worker wakeup policy ($GLTO_WAKE_POLICY) and the chaos harness's
// fault-injection plan ($GLTO_CHAOS). Both are resolved once at init, so a
// single binary can sweep them without rebuilding.
#pragma once

#include <cstdint>

namespace glto::sched {

/// Idle-worker wakeup policy of the shared scheduling core — an ablation
/// axis ($GLTO_WAKE_POLICY, honoured by all three backends).
/// Before this axis existed every push broadcast-woke the whole team
/// (today's `all`), so a single-producer burst paid one futex storm per
/// task; `one` issues exactly one targeted wake per deposit and is the
/// default.
enum class WakePolicy : std::uint8_t {
  Auto,       ///< resolve from $GLTO_WAKE_POLICY, default wake-one
  One,        ///< each deposit wakes at most one parked worker (targeted)
  Threshold,  ///< like One; bulk deposits engage victims ∝ queued work
  All,        ///< every deposit wakes every parked worker (legacy baseline)
};

/// Human-readable policy name ("one" / "threshold" / "all" / "auto").
[[nodiscard]] const char* wake_policy_name(WakePolicy p);

/// Resolves WakePolicy::Auto through @p env_var ("one" | "threshold" |
/// "all", case-insensitive; default wake-one). Unrecognized values warn on
/// stderr and fall back to wake-one. Non-Auto requests pass through.
[[nodiscard]] WakePolicy resolve_wake_policy(
    WakePolicy requested, const char* env_var = "GLTO_WAKE_POLICY");

/// Fault-injection plan of the chaos harness ($GLTO_CHAOS). Each
/// probability is independent and evaluated per opportunity:
///   spawn:p — ULT creation fails, the task degrades to inline execution
///   alloc:p — freelist slab allocation fails, exercising the spill paths
///   delay:p — a short delay is injected at a suspension point to widen
///             race windows
/// A fixed seed makes a chaos soak reproducible bit-for-bit modulo thread
/// interleaving: each thread derives its stream from seed × thread id.
struct ChaosConfig {
  bool enabled = false;
  double spawn_p = 0.0;
  double alloc_p = 0.0;
  double delay_p = 0.0;
  std::uint64_t seed = 1;
};

/// Parses @p env_var as "spawn:p,alloc:p,delay:p[,seed:s]" (keys optional,
/// any order, probabilities clamped to [0,1]). Unset or empty → disabled.
/// Unrecognized tokens warn on stderr and are skipped — a silent typo
/// would turn a chaos CI leg into a no-op.
[[nodiscard]] ChaosConfig resolve_chaos(const char* env_var = "GLTO_CHAOS");

}  // namespace glto::sched
