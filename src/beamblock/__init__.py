"""Spherical beam-pattern statistics and blockage analysis for mmWave arrays."""

from .coverage import (WeightedCDF, coverage_above, overlay_best_beam,
                       percentile_value, region_sample, weighted_cdf)
from .errors import BlockageError, ConfigError, DataError
from .grid import (FLOOR_DB, AngularGrid, Pattern, PatternSet, WeightField,
                   make_grid, solid_angle_weights, uniform_weights,
                   with_invalid_band)
from .lossstats import (GaussianFit, LossStats, Study, gaussian_fit,
                        loss_field, loss_stats, study_summary)
from .models import (BlockageModel, ComparisonReport, apply_model,
                     compare_models, comparison_dict, constant_loss,
                     flat_region, model_preset)
from .roi import (RoIImprovement, RoIMask, matched_r1_for_r5, roi_improvement,
                  roi_r1, roi_r2, roi_r3, roi_r4, roi_r5, write_roi_csv)
from .scanio import ScanData, parse_scan_csv, write_scan_csv
from .scenario import (Scenario, build_patterns, list_bundled, load_bundled,
                       load_scenario, scenario_metadata)
from .synth import (ArrayConfig, BeamSpec, BlockageMask, MaskRegion,
                    apply_blockage_mask, steering_weights, synth_pattern_set)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
