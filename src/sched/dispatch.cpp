#include "sched/dispatch.hpp"

#include <cctype>
#include <cstdio>
#include <string>

#include "common/env.hpp"

namespace glto::sched {

const char* wake_policy_name(WakePolicy p) {
  switch (p) {
    case WakePolicy::Auto:
      return "auto";
    case WakePolicy::One:
      return "one";
    case WakePolicy::Threshold:
      return "threshold";
    case WakePolicy::All:
      return "all";
  }
  return "?";
}

WakePolicy resolve_wake_policy(WakePolicy requested, const char* env_var) {
  if (requested != WakePolicy::Auto) return requested;
  if (auto s = common::env_str(env_var)) {
    std::string v = *s;
    for (char& c : v) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (v == "one") return WakePolicy::One;
    if (v == "threshold") return WakePolicy::Threshold;
    if (v == "all" || v == "broadcast") return WakePolicy::All;
    std::fprintf(stderr,
                 "sched: unrecognized %s='%s' (expected 'one', 'threshold' "
                 "or 'all'); using wake-one\n",
                 env_var, s->c_str());
  }
  return WakePolicy::One;
}

ChaosConfig resolve_chaos(const char* env_var) {
  ChaosConfig cfg;
  auto s = common::env_str(env_var);
  if (!s || s->empty()) return cfg;
  std::string v = *s;
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::size_t pos = 0;
  while (pos < v.size()) {
    std::size_t comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    std::string tok = v.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const std::size_t colon = tok.find(':');
    const std::string key = tok.substr(0, colon);
    const std::string val =
        colon == std::string::npos ? std::string() : tok.substr(colon + 1);
    double p = 0.0;
    bool numeric = false;
    try {
      p = std::stod(val);
      numeric = true;
    } catch (...) {
    }
    if (key == "seed" && numeric) {
      cfg.seed = static_cast<std::uint64_t>(p);
      if (cfg.seed == 0) cfg.seed = 1;
      continue;
    }
    if (numeric) {
      p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
      if (key == "spawn") {
        cfg.spawn_p = p;
        continue;
      }
      if (key == "alloc") {
        cfg.alloc_p = p;
        continue;
      }
      if (key == "delay") {
        cfg.delay_p = p;
        continue;
      }
    }
    std::fprintf(stderr,
                 "sched: unrecognized %s token '%s' (expected "
                 "spawn:p, alloc:p, delay:p or seed:s); skipping\n",
                 env_var, tok.c_str());
  }
  cfg.enabled = cfg.spawn_p > 0.0 || cfg.alloc_p > 0.0 || cfg.delay_p > 0.0;
  return cfg;
}

}  // namespace glto::sched
