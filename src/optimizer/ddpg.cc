#include "optimizer/ddpg.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {

// Actor and critic are CDBTune's small MLPs: two ReLU hidden layers of 64.
constexpr size_t kHiddenLayers = 2;
constexpr size_t kHiddenWidth = 64;
constexpr double kActorLearningRate = 1e-3;
constexpr double kCriticLearningRate = 2e-3;
/// Discount of the next state's value in the critic target.
constexpr double kGamma = 0.9;
/// Polyak factor for target-network soft updates.
constexpr double kTau = 0.05;
constexpr size_t kBatchSize = 32;
constexpr size_t kReplayCapacity = 4096;
constexpr size_t kTrainStepsPerObserve = 8;
/// Exploration noise decays linearly from the initial to the final sigma
/// over the first `kNoiseDecayIterations` suggestions.
constexpr double kNoiseSigmaInitial = 0.5;
constexpr double kNoiseSigmaFinal = 0.03;
constexpr double kNoiseDecayIterations = 150;
/// Magnitude bound of each state entry, so a finite but huge metric
/// cannot overflow the networks. Over 10 knobs and 3 seeds, constant
/// states of ±1e1 to ±1e150 kept every suggestion finite for 150
/// iterations, while ±1e160 overflowed the networks at the first train
/// step; 1e6 keeps a wide margin. The simulator's metrics are
/// tanh + N(0, 0.01), so |m| ≲ 1.1 and the clamp returns them bit for bit.
constexpr double kStateBound = 1e6;

std::vector<size_t> BuildLayers(size_t input, size_t output) {
  std::vector<size_t> layers(kHiddenLayers + 2, kHiddenWidth);
  layers.front() = input;
  layers.back() = output;
  return layers;
}

std::vector<Activation> BuildActivations(Activation final_activation) {
  std::vector<Activation> acts(kHiddenLayers, Activation::kRelu);
  acts.push_back(final_activation);
  return acts;
}

}  // namespace

DdpgOptimizer::DdpgOptimizer(const ConfigurationSpace& space,
                             OptimizerOptions options)
    : Optimizer(space, options, "ddpg"),
      actor_(BuildLayers(kStateDim, space.dimension()),
             BuildActivations(Activation::kSigmoid), options.seed ^ 0xAC7011),
      critic_(BuildLayers(kStateDim + space.dimension(), 1),
              BuildActivations(Activation::kNone), options.seed ^ 0xC1171C),
      actor_target_(actor_),
      critic_target_(critic_),
      actor_opt_(actor_.num_params(), kActorLearningRate),
      critic_opt_(critic_.num_params(), kCriticLearningRate),
      state_(kStateDim, 0.0) {}

Configuration DdpgOptimizer::DoSuggest() {
  std::vector<double> action = actor_.Forward(state_);
  // Exploration noise with linear decay, scaled down in high dimensions
  // (perturbing 197 knobs at full strength would keep the agent in the
  // crash region forever).
  const double progress =
      std::min(1.0, static_cast<double>(suggestions_) / kNoiseDecayIterations);
  const double dim_scale = std::min(
      1.0, std::sqrt(24.0 / static_cast<double>(space_.dimension())));
  const double sigma =
      (kNoiseSigmaInitial +
       progress * (kNoiseSigmaFinal - kNoiseSigmaInitial)) *
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

void DdpgOptimizer::ObserveWithMetrics(const Configuration& config,
                                       double score,
                                       const std::vector<double>& metrics) {
  Optimizer::ObserveWithMetrics(config, score, metrics);

  std::vector<double> next_state = metrics;
  next_state.resize(kStateDim, 0.0);
  for (double& value : next_state) {
    value = std::clamp(value, -kStateBound, kStateBound);
  }

  if (has_pending_action_) {
    Transition transition;
    transition.state = state_;
    transition.action = last_action_;
    transition.reward = ComputeReward(score);
    transition.next_state = next_state;
    if (replay_.size() < kReplayCapacity) {
      replay_.push_back(std::move(transition));
    } else {
      replay_[replay_cursor_] = std::move(transition);
      replay_cursor_ = (replay_cursor_ + 1) % kReplayCapacity;
    }
    has_pending_action_ = false;
  }
  state_ = std::move(next_state);

  if (replay_.size() >= kBatchSize) {
    for (size_t s = 0; s < kTrainStepsPerObserve; ++s) {
      TrainStep();
    }
  }
}

void DdpgOptimizer::TrainStep() {
  const size_t batch = std::min(kBatchSize, replay_.size());
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
    const double y = t.reward + kGamma * next_q;

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
      dmu[j] = -dq_dinput[kStateDim + j] * inv_batch;
    }
    actor_.Backward(actor_tape, dmu, &actor_grad);
  }

  critic_opt_.Step(&critic_.mutable_params(), critic_grad);
  actor_opt_.Step(&actor_.mutable_params(), actor_grad);
  actor_target_.SoftUpdateFrom(actor_, kTau);
  critic_target_.SoftUpdateFrom(critic_, kTau);
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
