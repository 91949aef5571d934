#include "optimizer/ddpg.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {

std::vector<size_t> BuildLayers(size_t input, const std::vector<size_t>& hidden,
                                size_t output) {
  std::vector<size_t> layers;
  layers.push_back(input);
  layers.insert(layers.end(), hidden.begin(), hidden.end());
  layers.push_back(output);
  return layers;
}

std::vector<Activation> BuildActivations(size_t hidden_layers,
                                         Activation final_activation) {
  std::vector<Activation> acts(hidden_layers, Activation::kRelu);
  acts.push_back(final_activation);
  return acts;
}

}  // namespace

DdpgOptimizer::DdpgOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options,
                             DdpgOptions ddpg_options)
    : Optimizer(space, options, "ddpg"),
      ddpg_options_(ddpg_options),
      actor_(BuildLayers(ddpg_options.state_dim, ddpg_options.actor_hidden,
                         space.dimension()),
             BuildActivations(ddpg_options.actor_hidden.size(),
                              Activation::kSigmoid),
             options.seed ^ 0xAC7011),
      critic_(BuildLayers(ddpg_options.state_dim + space.dimension(),
                          ddpg_options.critic_hidden, 1),
              BuildActivations(ddpg_options.critic_hidden.size(),
                               Activation::kNone),
              options.seed ^ 0xC1171C),
      actor_target_(actor_),
      critic_target_(critic_),
      actor_opt_(actor_.num_params(), ddpg_options.actor_lr),
      critic_opt_(critic_.num_params(), ddpg_options.critic_lr),
      state_(ddpg_options.state_dim, 0.0) {}

Configuration DdpgOptimizer::DoSuggest() {
  std::vector<double> action = actor_.Forward(state_);
  // Exploration noise with linear decay, scaled down in high dimensions
  // (perturbing 197 knobs at full strength would keep the agent in the
  // crash region forever).
  const double progress =
      std::min(1.0, static_cast<double>(suggestions_) /
                        ddpg_options_.noise_decay_iterations);
  const double dim_scale = std::min(
      1.0, std::sqrt(24.0 / static_cast<double>(space_.dimension())));
  const double sigma =
      (ddpg_options_.noise_sigma_initial +
       progress * (ddpg_options_.noise_sigma_final -
                   ddpg_options_.noise_sigma_initial)) *
      dim_scale;
  for (double& a : action) {
    a = std::clamp(a + rng_.Gaussian(0.0, sigma), 0.0, 1.0);
  }
  ++suggestions_;
  last_action_ = action;
  has_pending_action_ = true;
  return space_.FromUnit(action);
}

double DdpgOptimizer::ComputeReward(double score) {
  if (!has_reference_) {
    reference_score_ = score;
    has_reference_ = true;
  }
  const double ref_mag = std::max(std::abs(reference_score_), 1e-9);
  double reward = (score - reference_score_) / ref_mag;
  if (has_previous_) {
    const double prev_mag = std::max(std::abs(previous_score_), 1e-9);
    reward += 0.3 * (score - previous_score_) / prev_mag;
  }
  previous_score_ = score;
  has_previous_ = true;
  return std::clamp(reward, -3.0, 3.0);
}

void DdpgOptimizer::Observe(const Configuration& config, double score) {
  ObserveWithMetrics(config, score,
                     std::vector<double>(ddpg_options_.state_dim, 0.0));
}

void DdpgOptimizer::ObserveWithMetrics(const Configuration& config,
                                       double score,
                                       const std::vector<double>& metrics) {
  Optimizer::Observe(config, score);

  std::vector<double> next_state = metrics;
  next_state.resize(ddpg_options_.state_dim, 0.0);

  if (has_pending_action_) {
    Transition transition;
    transition.state = state_;
    transition.action = last_action_;
    transition.reward = ComputeReward(score);
    transition.next_state = next_state;
    if (replay_.size() < ddpg_options_.replay_capacity) {
      replay_.push_back(std::move(transition));
    } else {
      replay_[replay_cursor_] = std::move(transition);
      replay_cursor_ = (replay_cursor_ + 1) % ddpg_options_.replay_capacity;
    }
    has_pending_action_ = false;
  }
  state_ = std::move(next_state);

  if (replay_.size() >= ddpg_options_.batch_size) {
    for (size_t s = 0; s < ddpg_options_.train_steps_per_observe; ++s) {
      TrainStep();
    }
  }
}

void DdpgOptimizer::TrainStep() {
  const size_t batch = std::min(ddpg_options_.batch_size, replay_.size());
  const size_t action_dim = space_.dimension();

  std::vector<double> critic_grad(critic_.num_params(), 0.0);
  std::vector<double> actor_grad(actor_.num_params(), 0.0);
  const double inv_batch = 1.0 / static_cast<double>(batch);

  for (size_t b = 0; b < batch; ++b) {
    const Transition& t = replay_[rng_.Index(replay_.size())];

    // --- Critic target: y = r + gamma * Q'(s', mu'(s')).
    const std::vector<double> next_action =
        actor_target_.Forward(t.next_state);
    std::vector<double> target_input = t.next_state;
    target_input.insert(target_input.end(), next_action.begin(),
                        next_action.end());
    const double next_q = critic_target_.Forward(target_input)[0];
    const double y = t.reward + ddpg_options_.gamma * next_q;

    // --- Critic loss: (Q(s,a) - y)^2.
    std::vector<double> critic_input = t.state;
    critic_input.insert(critic_input.end(), t.action.begin(), t.action.end());
    Mlp::Tape critic_tape;
    const double q = critic_.Forward(critic_input, &critic_tape)[0];
    const std::vector<double> dq = {2.0 * (q - y) * inv_batch};
    critic_.Backward(critic_tape, dq, &critic_grad);

    // --- Actor loss: -Q(s, mu(s)).
    Mlp::Tape actor_tape;
    const std::vector<double> mu = actor_.Forward(t.state, &actor_tape);
    std::vector<double> q_input = t.state;
    q_input.insert(q_input.end(), mu.begin(), mu.end());
    Mlp::Tape q_tape;
    critic_.Forward(q_input, &q_tape);
    std::vector<double> scratch(critic_.num_params(), 0.0);
    const std::vector<double> dq_dinput =
        critic_.Backward(q_tape, {1.0}, &scratch);
    // Gradient w.r.t. the action slice, negated for ascent on Q.
    std::vector<double> dmu(action_dim);
    for (size_t j = 0; j < action_dim; ++j) {
      dmu[j] = -dq_dinput[ddpg_options_.state_dim + j] * inv_batch;
    }
    actor_.Backward(actor_tape, dmu, &actor_grad);
  }

  critic_opt_.Step(&critic_.mutable_params(), critic_grad);
  actor_opt_.Step(&actor_.mutable_params(), actor_grad);
  actor_target_.SoftUpdateFrom(actor_, ddpg_options_.tau);
  critic_target_.SoftUpdateFrom(critic_, ddpg_options_.tau);
}

DdpgOptimizer::Weights DdpgOptimizer::ExportWeights() const {
  return Weights{actor_.params(), critic_.params()};
}

Status DdpgOptimizer::ImportWeights(const Weights& weights) {
  if (weights.actor.size() != actor_.num_params() ||
      weights.critic.size() != critic_.num_params()) {
    return Status::InvalidArgument("weight shape mismatch");
  }
  actor_.mutable_params() = weights.actor;
  critic_.mutable_params() = weights.critic;
  actor_target_ = actor_;
  critic_target_ = critic_;
  return Status::OK();
}

}  // namespace dbtune
