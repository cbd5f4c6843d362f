#ifndef GMR_RIVER_CONSTITUENTS_H_
#define GMR_RIVER_CONSTITUENTS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/units.h"
#include "expr/parser.h"
#include "gp/parameter_prior.h"

namespace gmr::river {

/// Typed validation error for constituent/simulation configuration. Every
/// entry point that used to silently assume the two-species layout now
/// validates against one of these codes instead of truncating state.
enum class ConfigErrorCode : int {
  kNone = 0,
  kEmptySet,              ///< A problem needs at least one constituent.
  kEmptyName,             ///< Constituent names key the variable registry.
  kDuplicateName,         ///< Names must be unique within a set.
  kSpeciesCountMismatch,  ///< config.num_species != constituents/equations.
  kBadObservedSeries,     ///< observed_series out of the dataset's range.
  kBadInitialState,       ///< Non-finite initial condition.
  kBadSubsteps,           ///< config.substeps < 1.
  kBadStateBounds,        ///< Non-finite or inverted state_min/state_max.
  kNegativeWatchdogLimit, ///< A watchdog limit below 0 (0 disables).
  kBadChannelConfig,      ///< Channel geometry out of range, or a method
                          ///< the channel cannot step (RK4).
};

const char* ConfigErrorCodeName(ConfigErrorCode code);

struct ConfigError {
  ConfigErrorCode code = ConfigErrorCode::kNone;
  std::string message;

  bool ok() const { return code == ConfigErrorCode::kNone; }
  static ConfigError Ok() { return ConfigError{}; }
  static ConfigError Error(ConfigErrorCode code, std::string message) {
    return ConfigError{code, std::move(message)};
  }
};

/// One modeled constituent (species) of the river substrate: a state slot
/// of the mass-balance store with its dimensional declaration, initial
/// conditions, and (optional) mapping onto an observed dataset series.
/// The source/sink process of constituent `i` is the i-th equation of the
/// phenotype handed to the simulator — equation slots and state slots are
/// the same index space.
struct Constituent {
  std::string name;
  /// SI dimension of the state (feeds the units pass via UnitsEnvFor).
  analysis::Dim dimension = analysis::Dim::Concentration();
  /// State at day 0 (training window) and at train_end (test window).
  double initial_state = 1.0;
  double test_initial_state = 1.0;
  /// Observation mapping: index into RiverDataset::ObservedSeries (0 is the
  /// primary series, historically chlorophyll-a), or -1 when the
  /// constituent is unobserved (a latent state such as B_Zoo).
  int observed_series = -1;
};

/// Number of observed (non-state) driver variables of paper Table IV; they
/// follow the constituent states in every variable layout, in the legacy
/// slot order kVlgt..kVsd.
inline constexpr int kNumDriverVariables = 10;

/// First-class registry of the constituents a river problem simulates:
/// replaces the hard-coded B_Phy/B_Zoo pair. Declares, per species, the
/// name, SI dimension, initial conditions, equation slot, and observation
/// mapping, plus the set-level parameter priors/dimensions of the process
/// family attached to the set.
///
/// Variable layout contract: states occupy slots [0, size()), then the ten
/// Table IV drivers follow in legacy order, so num_variables() =
/// size() + kNumDriverVariables. The two-species legacy preset reproduces
/// the historical layout (B_Phy=0, B_Zoo=1, V_lgt=2, ...) exactly.
class ConstituentSet {
 public:
  ConstituentSet() = default;

  /// Appends a constituent; rejects empty/duplicate names and non-finite
  /// initial states with a typed error.
  ConfigError Add(Constituent constituent);

  std::size_t size() const { return constituents_.size(); }
  bool empty() const { return constituents_.empty(); }
  const Constituent& at(std::size_t i) const { return constituents_[i]; }
  Constituent& mutable_at(std::size_t i) { return constituents_[i]; }
  const std::vector<Constituent>& constituents() const {
    return constituents_;
  }

  /// Short tag naming the preset ("plankton2", "transport5", ...); feeds
  /// run manifests and checkpoint fingerprints so a resume against a
  /// different constituent registry is refused, not mis-decoded.
  const std::string& preset() const { return preset_; }
  void set_preset(std::string preset) { preset_ = std::move(preset); }

  /// Set-level constant-parameter priors of the attached process family
  /// (Table III for the plankton preset; linear-reservoir rate/source
  /// boxes for the transport presets).
  const gp::ParameterPriors& priors() const { return priors_; }
  void set_priors(gp::ParameterPriors priors) { priors_ = std::move(priors); }
  std::size_t num_parameters() const { return priors_.size(); }

  /// SI dimension per parameter slot, parallel to priors().
  const std::vector<analysis::Dim>& parameter_dims() const {
    return parameter_dims_;
  }
  void set_parameter_dims(std::vector<analysis::Dim> dims) {
    parameter_dims_ = std::move(dims);
  }

  /// Total variable slots: states then drivers.
  std::size_t num_variables() const {
    return constituents_.size() + kNumDriverVariables;
  }
  /// Variable slot of driver `k` in [0, kNumDriverVariables) — the slot
  /// that legacy slot kVlgt + k maps to under this set's layout.
  int driver_slot(int k) const {
    return static_cast<int>(constituents_.size()) + k;
  }

  /// Name of every variable slot in slot order (state names then drivers).
  std::vector<std::string> VariableNames() const;

  std::vector<double> InitialStates() const;
  std::vector<double> TestInitialStates() const;

  /// Indices of the constituents with an observation mapping, in state
  /// order. Fitness averages squared error over these.
  std::vector<int> ObservedConstituents() const;
  /// First observed constituent, or 0 when none is mapped (a trajectory
  /// still has to report something).
  int PrimaryObserved() const;

  /// Structural validation of the whole set (non-empty, finite initials).
  ConfigError Validate() const;

  /// The legacy two-species plankton problem (B_Phy observed against the
  /// primary series, B_Zoo latent) with the historical default initial
  /// conditions — the compatibility preset that pins every seed trajectory
  /// bit-identically.
  static ConstituentSet LegacyPlankton();
  /// Same, with the initial conditions a dataset carries.
  static ConstituentSet LegacyPlankton(double initial_bphy,
                                       double initial_bzoo,
                                       double test_initial_bphy,
                                       double test_initial_bzoo);

  /// The torrentpy-style transport registry over the first `num_species` of
  /// {M_NO3, M_NH4, M_DPH, M_PPH, M_SED} (nitrate, ammonia, dissolved and
  /// particulate phosphorus, sediment). Nitrate is observed against the
  /// primary series; the five-species set additionally observes sediment
  /// against extra series 1. The parameter layout is always the full
  /// TransportParameterSlot table regardless of num_species.
  static ConstituentSet Transport(int num_species = 5);

 private:
  std::vector<Constituent> constituents_;
  std::string preset_;
  gp::ParameterPriors priors_;
  std::vector<analysis::Dim> parameter_dims_;
};

/// Slot layout of the transport process constants (linear-reservoir rates
/// and lateral source coefficients, one family shared by every transport
/// preset; the torrentpy r_p_k_* layout).
enum TransportParameterSlot : int {
  kKNit = 0,   ///< Nitrification rate NH4 -> NO3 [1/day].
  kKNo3 = 1,   ///< Nitrate loss (denitrification + export) [1/day].
  kKNh4 = 2,   ///< Ammonia loss [1/day].
  kKDph = 3,   ///< Dissolved-phosphorus loss [1/day].
  kKPph = 4,   ///< Particulate-phosphorus loss (settling) [1/day].
  kKSed = 5,   ///< Sediment loss (settling) [1/day].
  kKDes = 6,   ///< Desorption PPH -> DPH [1/day].
  kKSor = 7,   ///< Sorption DPH -> PPH [1/day].
  kSNo3 = 8,   ///< Lateral nitrate source coefficient [1/day].
  kSNh4 = 9,   ///< Lateral ammonia source coefficient [1/day].
  kSDph = 10,  ///< Lateral dissolved-P source coefficient [1/day].
  kSPph = 11,  ///< Lateral particulate-P source coefficient [1/day].
  kSSed = 12,  ///< Lateral sediment source coefficient [1/day].
  kNumTransportParameters = 13,
};

/// Display name of each transport parameter slot ("K_NIT", ...).
const char* TransportParameterName(int slot);

/// Expert priors of the transport process family (rate boxes in [0, 1]/day,
/// source coefficients in [0, 2]/day).
gp::ParameterPriors TransportParameterPriors();

/// Parser symbol table for this set's variable names and parameter names.
expr::SymbolTable SymbolsFor(const ConstituentSet& constituents);

/// Per-constituent dimension table: state dims from the registry, driver
/// dims from the Table IV knowledge base, parameter dims from the set.
/// This is what the units pass and gmr_lint check multi-constituent models
/// against.
analysis::UnitsEnv UnitsEnvFor(const ConstituentSet& constituents);

/// Species-major state storage of a channel's `width` cells:
/// value(species, cell) at index species * width + cell, so each species'
/// cells are one contiguous row.
class MassBalanceStore {
 public:
  MassBalanceStore(std::size_t num_species, std::size_t width)
      : num_species_(num_species), width_(width),
        values_(num_species * width, 0.0) {}

  std::size_t num_species() const { return num_species_; }
  std::size_t width() const { return width_; }

  double& at(std::size_t species, std::size_t cell) {
    return values_[species * width_ + cell];
  }
  double at(std::size_t species, std::size_t cell) const {
    return values_[species * width_ + cell];
  }
  /// The cells of one species (length width()).
  double* row(std::size_t species) { return &values_[species * width_]; }
  const double* row(std::size_t species) const {
    return &values_[species * width_];
  }

  /// Broadcasts per-species initial states across every cell.
  void Fill(const std::vector<double>& initial_state);

 private:
  std::size_t num_species_;
  std::size_t width_;
  std::vector<double> values_;
};

}  // namespace gmr::river

#endif  // GMR_RIVER_CONSTITUENTS_H_
