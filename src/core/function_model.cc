#include "src/core/function_model.h"

#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/ml/serialization.h"

namespace ofc::core {

namespace {

const std::vector<std::string>& BenefitClassNames() {
  static const std::vector<std::string> kNames = {"no", "yes"};
  return kNames;
}

}  // namespace

FunctionModel::FunctionModel(std::string function, std::vector<ml::Attribute> features,
                             ModelConfig config)
    : function_(std::move(function)), feature_attrs_(std::move(features)), config_(config) {}

std::optional<int> FunctionModel::PredictClass(const std::vector<double>& features) const {
  if (!trained_) {
    return std::nullopt;
  }
  return memory_model_.Predict(features);
}

std::optional<bool> FunctionModel::PredictBenefit(const std::vector<double>& features) const {
  if (!benefit_trained_) {
    return std::nullopt;
  }
  return benefit_model_.Predict(features) == 1;
}

double FunctionModel::eo_rate() const {
  if (recent_evals_.empty()) {
    return 0.0;
  }
  int eo = 0;
  for (const auto& [predicted, truth] : recent_evals_) {
    eo += predicted >= truth;
  }
  return static_cast<double>(eo) / static_cast<double>(recent_evals_.size());
}

double FunctionModel::under_within_one_rate() const {
  int under = 0;
  int within = 0;
  for (const auto& [predicted, truth] : recent_evals_) {
    if (predicted < truth) {
      ++under;
      within += truth - predicted == 1;
    }
  }
  return under == 0 ? 1.0 : static_cast<double>(within) / static_cast<double>(under);
}

void FunctionModel::UpdateMaturity(int predicted, int truth) {
  ++evaluated_;
  recent_evals_.emplace_back(predicted, truth);
  while (recent_evals_.size() > static_cast<std::size_t>(config_.maturity_window)) {
    recent_evals_.pop_front();
  }
  if (!mature_ && observations_ >= config_.maturity_min_invocations &&
      eo_rate() >= config_.maturity_eo_threshold &&
      under_within_one_rate() >= config_.maturity_under_within_one) {
    mature_ = true;
    matured_at_ = observations_;
    OFC_LOG(Info) << function_ << " model matured after " << observations_ << " invocations "
                  << "(EO " << eo_rate() << ", under-within-1 " << under_within_one_rate()
                  << ")";
  }
}

void FunctionModel::Learn(const std::vector<double>& features, Bytes actual_memory,
                          bool benefit_label) {
  ++observations_;
  const int truth = config_.intervals.Label(actual_memory);

  // Shadow-evaluate the current model to drive maturation (§5.3.1) and decide
  // what to retain (§5.3.3).
  std::optional<int> predicted = PredictClass(features);
  if (predicted.has_value()) {
    UpdateMaturity(*predicted, truth);
  }

  bool keep = true;
  double weight = 1.0;
  if (mature_ && predicted.has_value()) {
    const int k = *predicted;
    const bool under = k < truth;
    const bool way_over = k - truth > config_.way_over_threshold;
    keep = under || way_over;
    if (under) {
      weight = config_.under_weight;
    }
  } else if (predicted.has_value() && *predicted < truth) {
    weight = config_.under_weight;
  }

  if (keep) {
    memory_samples_.push_back(ml::Instance{features, truth, weight});
    while (memory_samples_.size() > config_.max_training_set) {
      memory_samples_.pop_front();
    }
    ++new_samples_since_train_;
  }

  benefit_samples_.push_back(ml::Instance{features, benefit_label ? 1 : 0, 1.0});
  while (benefit_samples_.size() > config_.max_training_set) {
    benefit_samples_.pop_front();
  }

  MaybeRetrain();
}

std::string FunctionModel::SerializeState() const {
  std::ostringstream out;
  out << "fnmodel 1 ";
  ml::WriteString(out, function_);
  out << observations_ << ' ' << evaluated_ << ' ' << (mature_ ? 1 : 0) << ' '
      << matured_at_ << ' ' << new_samples_since_train_ << ' ';
  out << recent_evals_.size() << ' ';
  for (const auto& [predicted, truth] : recent_evals_) {
    out << predicted << ' ' << truth << ' ';
  }
  ml::WriteJ48(out, memory_model_);
  ml::WriteJ48(out, benefit_model_);
  // Training sets (schemas first, for instance arity).
  const ml::Schema memory_schema(feature_attrs_, config_.intervals.ClassAttribute());
  ml::WriteSchema(out, memory_schema);
  ml::WriteInstances(out, {memory_samples_.begin(), memory_samples_.end()});
  ml::WriteInstances(out, {benefit_samples_.begin(), benefit_samples_.end()});
  return out.str();
}

Status FunctionModel::RestoreState(const std::string& data) {
  std::istringstream in(data);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != "fnmodel" || version != 1) {
    return InvalidArgumentError("not a fnmodel v1 document");
  }
  auto name = ml::ReadString(in);
  if (!name.ok()) {
    return name.status();
  }
  if (*name != function_) {
    return InvalidArgumentError("model document is for function " + *name);
  }
  int observations = 0;
  int evaluated = 0;
  int mature_flag = 0;
  int matured_at = -1;
  int pending = 0;
  std::size_t eval_count = 0;
  if (!(in >> observations >> evaluated >> mature_flag >> matured_at >> pending >>
        eval_count) ||
      eval_count > (1u << 20)) {
    return InvalidArgumentError("truncated fnmodel counters");
  }
  std::deque<std::pair<int, int>> evals;
  for (std::size_t i = 0; i < eval_count; ++i) {
    int predicted = 0;
    int truth = 0;
    if (!(in >> predicted >> truth)) {
      return InvalidArgumentError("truncated maturity window");
    }
    evals.emplace_back(predicted, truth);
  }
  auto memory_model = ml::ReadJ48(in);
  if (!memory_model.ok()) {
    return memory_model.status();
  }
  auto benefit_model = ml::ReadJ48(in);
  if (!benefit_model.ok()) {
    return benefit_model.status();
  }
  auto schema = ml::ReadSchema(in);
  if (!schema.ok()) {
    return schema.status();
  }
  if (schema->num_features() != feature_attrs_.size()) {
    return InvalidArgumentError("feature arity mismatch in model document");
  }
  auto memory_samples = ml::ReadInstances(in, *schema);
  if (!memory_samples.ok()) {
    return memory_samples.status();
  }
  auto benefit_samples = ml::ReadInstances(in, *schema);
  if (!benefit_samples.ok()) {
    return benefit_samples.status();
  }

  observations_ = observations;
  evaluated_ = evaluated;
  mature_ = mature_flag == 1;
  matured_at_ = matured_at;
  new_samples_since_train_ = pending;
  recent_evals_ = std::move(evals);
  trained_ = memory_model->NumNodes() > 0;
  benefit_trained_ = benefit_model->NumNodes() > 0;
  memory_model_ = std::move(*memory_model);
  benefit_model_ = std::move(*benefit_model);
  memory_samples_.assign(memory_samples->begin(), memory_samples->end());
  benefit_samples_.assign(benefit_samples->begin(), benefit_samples->end());
  return OkStatus();
}

void FunctionModel::MaybeRetrain() {
  const bool first_train =
      !trained_ && static_cast<int>(memory_samples_.size()) >= config_.min_train;
  const bool periodic = trained_ && new_samples_since_train_ >= config_.retrain_every;
  if (!first_train && !periodic) {
    return;
  }
  new_samples_since_train_ = 0;

  // J48 is not incremental (§5.3.3): rebuild both models from the curated sets.
  ml::Dataset memory_data(ml::Schema(feature_attrs_, config_.intervals.ClassAttribute()));
  for (const ml::Instance& inst : memory_samples_) {
    (void)memory_data.Add(inst);
  }
  if (!memory_data.empty()) {
    trained_ = memory_model_.Train(memory_data).ok() || trained_;
  }

  ml::Dataset benefit_data(
      ml::Schema(feature_attrs_, ml::Attribute::Nominal("benefit", BenefitClassNames())));
  for (const ml::Instance& inst : benefit_samples_) {
    (void)benefit_data.Add(inst);
  }
  if (!benefit_data.empty()) {
    benefit_trained_ = benefit_model_.Train(benefit_data).ok() || benefit_trained_;
  }
}

}  // namespace ofc::core
