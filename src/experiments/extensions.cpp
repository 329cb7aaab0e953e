#include "experiments/extensions.hpp"

namespace ddp::experiments {

namespace {

/// The per-agent forensics of one run, folded over its agents.
struct AgentFold {
  double detected_pct = 0.0;       ///< agents ever cut
  double detection_minutes = -1.0; ///< mean activation -> first cut; -1 = none
  double injected = 0.0;           ///< mean attack traffic before the cut
  double delivered = 0.0;          ///< ...of which reached the overlay
};

AgentFold fold_agents(const ScenarioResult& r) {
  AgentFold f;
  if (r.forensics == nullptr) return f;
  std::size_t detected = 0, n = 0;
  double lat_sum = 0.0;
  for (const auto& [id, a] : r.forensics->agents()) {
    ++n;
    f.injected += a.injected_before_cut;
    f.delivered += a.delivered_before_cut;
    if (a.first_cut_t >= 0.0 && a.activated_t >= 0.0) {
      ++detected;
      lat_sum += (a.first_cut_t - a.activated_t) / 60.0;
    }
  }
  if (n > 0) {
    f.detected_pct =
        static_cast<double>(detected) / static_cast<double>(n) * 100.0;
    f.injected /= static_cast<double>(n);
    f.delivered /= static_cast<double>(n);
  }
  if (detected > 0) {
    f.detection_minutes = lat_sum / static_cast<double>(detected);
  }
  return f;
}

}  // namespace

// ===================================================== defense comparison

Study defense_comparison(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"defense"};
  const auto add = [&s](std::string label, defense::Kind kind,
                        std::size_t attack) {
    s.cases.push_back({{std::move(label)}, [kind, attack](ScenarioConfig& c) {
                         c.defense = kind;
                         c.attack.agents = attack;
                       }});
  };
  add("healthy (no attack)", defense::Kind::kNone, 0);
  add("none", defense::Kind::kNone, agents);
  add("naive-cut", defense::Kind::kNaiveCut, agents);
  add("fair-share", defense::Kind::kFairShare, agents);
  add("dd-police", defense::Kind::kDdPolice, agents);
  // The original seven columns keep their exact headers and order; the
  // fault-injection tallies trail them so consumers parsing by position
  // keep working.
  s.columns = {{"success(%)", 1},
               {"response(s)", 2},
               {"traffic/min", 0},
               {"good_wrongly_cut", 1},
               {"bad_identified(%)", 1},
               {"stabilized_damage(%)", 1},
               {"timeouts", 1},
               {"retries", 1},
               {"corrupt_rejects", 1},
               {"crashed", 1},
               {"stalled", 1}};
  s.measure = [](const Cell& c) {
    const std::size_t attack = c.config.attack.agents;
    const auto r = attack == 0 ? *c.baseline : run_scenario(c.config);
    return std::vector<Ratio>{mean(r.summary.avg_success_rate * 100.0),
                              mean(r.summary.avg_response_time),
                              mean(r.summary.avg_traffic_per_minute),
                              mean(r.errors.false_negative),
                              mean(identified_pct(attack, r)),
                              mean(c.damage(r).stabilized_damage),
                              mean(r.summary.fault_timeouts),
                              mean(r.summary.fault_retries),
                              mean(r.summary.fault_corrupt_rejects),
                              mean(r.summary.fault_crashed),
                              mean(r.summary.fault_stalled)};
  };
  return s;
}

// ======================================================== fault ablation

Study fault_ablation(std::size_t agents, const std::vector<double>& losses,
                     const std::vector<double>& jitters) {
  Study s;
  s.agents = agents;
  s.label_headers = {"loss", "jitter(s)"};
  for (double jitter : jitters) {
    for (double loss : losses) {
      s.cases.push_back(
          {{util::format_double(loss, 2), util::format_double(jitter, 1)},
           [loss, jitter](ScenarioConfig& c) {
             c.fault.channel.drop_probability = loss;
             c.fault.channel.corrupt_probability = loss / 4.0;
             c.fault.channel.delay_jitter_seconds = jitter;
           }});
    }
  }
  s.columns = {{"success(%)", 1},
               {"response(s)", 2},
               {"good_wrongly_cut", 1},
               {"bad_missed", 1},
               {"false_judgments", 1},
               {"recovery(min)", 2},
               {"stabilized_damage(%)", 1},
               {"timeouts", 1},
               {"retries", 1},
               {"late_replies", 1},
               {"corrupt_rejects", 1},
               {"crashed", 1},
               {"stalled", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    const auto dmg = c.damage(r);
    return std::vector<Ratio>{
        mean(r.summary.avg_success_rate * 100.0),
        mean(r.summary.avg_response_time),
        mean(r.errors.false_negative),
        mean(r.errors.false_positive),
        mean(r.errors.false_negative + r.errors.false_positive),
        when(dmg.recovery_minutes >= 0.0, dmg.recovery_minutes),
        mean(dmg.stabilized_damage),
        mean(r.summary.fault_timeouts),
        mean(r.summary.fault_retries),
        mean(r.summary.fault_late_replies),
        mean(r.summary.fault_corrupt_rejects),
        mean(r.summary.fault_crashed),
        mean(r.summary.fault_stalled)};
  };
  return s;
}

// ====================================================== topology ablation

Study topology_ablation(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"topology"};
  const auto add = [&s](std::string label, topology::Model model) {
    s.cases.push_back({{std::move(label)},
                       nullptr,
                       [model](ScenarioConfig& c) { c.topo.model = model; }});
  };
  add("barabasi-albert", topology::Model::kBarabasiAlbert);
  add("waxman", topology::Model::kWaxman);
  add("erdos-renyi", topology::Model::kErdosRenyi);
  add("two-tier (ultrapeer)", topology::Model::kTwoTier);
  s.columns = {{"healthy_success(%)", 1},
               {"attacked_success(%)", 1},
               {"defended_success(%)", 1},
               {"detection(min)", 2},
               {"good_wrongly_cut", 1}};
  s.measure = [](const Cell& c) {
    const auto none = run_scenario(c.undefended());
    const auto ddp = run_scenario(c.config);
    return std::vector<Ratio>{
        mean(c.baseline->summary.avg_success_rate * 100.0),
        mean(none.summary.avg_success_rate * 100.0),
        mean(ddp.summary.avg_success_rate * 100.0), detection(ddp),
        mean(ddp.errors.false_negative)};
  };
  return s;
}

// ================================================= cutoff-exponent ablation

Study cutoff_ablation(const Scale& scale, std::size_t agents,
                      const std::vector<double>& exponents) {
  Study s;
  s.agents = agents;
  s.baseline = false;
  s.label_headers = {"cutoff_exp", "degree_cap"};
  for (double exponent : exponents) {
    const auto edit = [exponent](ScenarioConfig& c) {
      c.topo.model = topology::Model::kHardCutoff;
      c.topo.hc_cutoff_exponent = exponent;
      c.obs.forensics = true;
    };
    // The degree ceiling each exponent produces at this peer count.
    ScenarioConfig cfg =
        scaled_scenario(scale, agents, defense::Kind::kDdPolice, 0);
    edit(cfg);
    s.cases.push_back({{util::format_double(exponent, 1),
                        std::to_string(topology::hard_cutoff_degree(cfg.topo))},
                       edit});
  }
  s.columns = {{"detected(%)", 1},
               {"detection(min)", 2},
               {"injected_before_cut", 0},
               {"delivered_before_cut", 0},
               {"honest_wrongly_cut", 1},
               {"success(%)", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    const AgentFold f = fold_agents(r);
    return std::vector<Ratio>{
        mean(f.detected_pct),
        when(f.detection_minutes >= 0.0, f.detection_minutes),
        mean(f.injected), mean(f.delivered), mean(r.errors.false_negative),
        mean(r.summary.avg_success_rate * 100.0)};
  };
  return s;
}

// ========================================================= churn ablation

Study churn_ablation(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"churn_regime"};
  const auto add = [&s](std::string label, bool enabled,
                        workload::LifetimeDistribution dist,
                        double mean_minutes) {
    s.cases.push_back({{std::move(label)},
                       nullptr,
                       [=](ScenarioConfig& c) {
                         c.churn.enabled = enabled;
                         c.churn.distribution = dist;
                         if (mean_minutes > 0) {
                           c.churn.mean_lifetime = minutes(mean_minutes);
                           c.churn.lifetime_variance =
                               mean_minutes / 2.0 * kMinute * kMinute;
                         }
                       }});
  };
  using workload::LifetimeDistribution;
  add("static (no churn)", false, LifetimeDistribution::kLognormal, 0);
  add("paper lognormal 60min", true, LifetimeDistribution::kLognormal, 60);
  add("fast lognormal 10min", true, LifetimeDistribution::kLognormal, 10);
  add("exponential 60min", true, LifetimeDistribution::kExponential, 60);
  add("pareto 60min", true, LifetimeDistribution::kPareto, 60);
  s.columns = {{"good_wrongly_cut", 1},
               {"bad_missed", 1},
               {"stabilized_damage(%)", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    return std::vector<Ratio>{mean(r.errors.false_negative),
                              mean(r.errors.false_positive),
                              mean(c.damage(r).stabilized_damage)};
  };
  return s;
}

// ===================================================== rejoin persistence

Study rejoin_study(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"attacker_persistence"};
  const auto add = [&s](std::string label, bool rejoin, double after) {
    s.cases.push_back({{std::move(label)}, [rejoin, after](ScenarioConfig& c) {
                         c.attack.rejoin = rejoin;
                         c.attack.rejoin_after_minutes = after;
                       }});
  };
  add("one-shot (paper evaluation)", false, 0.0);
  add("rejoin after 5 min", true, 5.0);
  add("rejoin after 2 min", true, 2.0);
  add("rejoin after 1 min", true, 1.0);
  s.columns = {{"stabilized_damage(%)", 1},
               {"rejoin_events", 1},
               {"agent_links_cut", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    return std::vector<Ratio>{mean(c.damage(r).stabilized_damage),
                              mean(r.attack_rejoins),
                              mean(r.errors.bad_cut_events)};
  };
  return s;
}

// ====================================================== attack-rate sweep

Study attack_rate_sweep(std::size_t agents) {
  Study s;
  s.agents = agents;
  s.label_headers = {"Qd(queries/min/link)"};
  for (double rate : {250.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0}) {
    s.cases.push_back(
        {{util::format_double(rate, 0)}, [rate](ScenarioConfig& c) {
           c.flow.attack_target_per_minute = rate;
         }});
  }
  s.columns = {{"bad_identified(%)", 1},
               {"detection(min)", 2},
               {"damage_undefended(%)", 1},
               {"damage_dd_police(%)", 1}};
  s.measure = [agents](const Cell& c) {
    const auto none = run_scenario(c.undefended());
    const auto ddp = run_scenario(c.config);
    return std::vector<Ratio>{mean(identified_pct(agents, ddp)),
                              detection(ddp),
                              mean(c.damage(none).stabilized_damage),
                              mean(c.damage(ddp).stabilized_damage)};
  };
  return s;
}

// ================================================== adaptive-CT ablation

Study adaptive_ct_ablation(std::size_t agents) {
  struct Strat {
    std::string label;
    std::size_t agents;
    ConfigEdit apply;
  };
  // The sub-warning strategies run at a sourcing scale whose per-link rate
  // sits well under the 500 q/min static warning threshold (scale 0.06 of
  // Q_d = 20,000 spread over ~6 links ≈ 200 q/min/link) but far above any
  // honest peer's learned band.
  const std::vector<Strat> strats{
      {"full-rate", agents, [](ScenarioConfig&) {}},
      {"low-slow", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kRamp;
         c.attack.ramp_minutes = 8.0;
         c.attack.ramp_target_scale = 0.06;
       }},
      {"pulse", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kPulse;
         c.attack.pulse_scale = 0.06;
         c.attack.pulse_on_minutes = 1.0;
         c.attack.pulse_off_minutes = 3.0;
       }},
      {"probe", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kProbe;
         c.attack.probe_step_scale = 0.05;
         c.attack.probe_backoff = 0.5;
       }},
      {"collude", agents,
       [](ScenarioConfig& c) {
         c.attack.behavior.report = attack::ReportStrategy::kCollude;
       }},
      {"flash-crowd", 0,
       [](ScenarioConfig& c) {
         c.flash.enabled = true;
         c.flash.start_minute = c.attack.start_minute + 4.0;
         c.flash.surge_minutes = 5.0;
         c.flash.surge_factor = 20.0;
         c.flash.participation = 0.25;
       }},
  };
  Study s;
  s.baseline = false;
  s.label_headers = {"strategy", "policy"};
  for (const auto& st : strats) {
    for (bool adaptive : {false, true}) {
      s.cases.push_back({{st.label, adaptive ? "adaptive" : "static"},
                         [st, adaptive](ScenarioConfig& c) {
                           c.attack.agents = st.agents;
                           c.obs.forensics = true;
                           st.apply(c);
                           c.ddpolice.adaptive.enabled = adaptive;
                         }});
    }
  }
  s.columns = {{"detected(%)", 1},
               {"detection(min)", 2},
               {"injected_before_cut", 0},
               {"delivered_before_cut", 0},
               {"honest_wrongly_cut", 1},
               {"honest_suspected", 1},
               {"success(%)", 1}};
  s.measure = [](const Cell& c) {
    const auto r = run_scenario(c.config);
    const AgentFold f = fold_agents(r);
    return std::vector<Ratio>{
        mean(f.detected_pct),
        when(f.detection_minutes >= 0.0, f.detection_minutes),
        mean(f.injected),
        mean(f.delivered),
        mean(r.errors.false_negative),
        mean(r.forensics != nullptr ? r.forensics->honest().size() : 0),
        mean(r.summary.avg_success_rate * 100.0)};
  };
  return s;
}

}  // namespace ddp::experiments
