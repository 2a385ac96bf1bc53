"""kinereco: head kinematics reconstruction from multi-IMU headband recordings.

Reconstructs rigid-body head kinematics (angular velocity, angular
acceleration, translational acceleration) from a multi-IMU headband session,
using sensor averaging, wavelet-adaptive low-pass filtering, and an algebraic
three-accelerometer/one-gyroscope solve; quantifies agreement against a
reference device with CORA scores, Bland-Altman statistics, windowed NRMSE,
and paired t-tests.
"""

import os

# One OpenBLAS thread unless the user chose a count.  kinereco's linear
# algebra is small solves, where a second thread only contends for the CPUs
# with the first and with other processes.  OpenBLAS reads the variable when
# it loads, so this comes before numpy's import (and scipy's, which loads its
# own OpenBLAS).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import TimeSeries1, TimeSeries3, magnitude, rotate_series
from .detect import align_events, detect_impacts, extract_window
from .errors import (ConfigError, DataError, DegenerateSignalError, FormatError,
                     KinerecoError, WindowError)
from .evaluate import (bland_altman, cora_score, nrmse_windowed, paired_t_test,
                       peak_resultant)
from .ingest import (ImuRecording, SensorSpec, SessionConfig,
                     load_session_config, parse_imu_csv, parse_reference_csv)
from .kinematics import (a3g1_solve, adaptive_filter, average_angular_velocity,
                         five_point_derivative)
from .synth import (MotionProfile, NoiseSpec, SessionProfile, simulate_sensors,
                    simulate_session, standard_session_profile, write_session)
from .wavelet import (butterworth_lowpass, cfc_filter, cwt, normalized_slices,
                      select_cutoff)

__version__ = "0.1.0"
