import pytest

from softrig.errors import ContractError, ThermalTimeoutError
from softrig.thermal import (PHASE_RIGID, PHASE_SOFT, ThermalParams,
                             initial_state, loop_step, setpoint_for,
                             target_phase, transition_time)

PARAMS = ThermalParams()


def soft_start(params):
    """A segment at ambient just commanded soft, as loop_step's first four
    arguments."""
    temp, _, integral, phase = initial_state(params)
    return temp, setpoint_for(True, params), integral, phase


def run_loop(state, params, seconds, dt=0.01):
    """Hold the state's setpoint for seconds; returns the last state and
    every temperature and duty along the way."""
    temp, setpoint, integral, phase = state
    temps, duties = [], []
    for _ in range(int(round(seconds / dt))):
        temp, integral, phase, u = loop_step(temp, setpoint, integral, phase,
                                             params, dt)
        temps.append(temp)
        duties.append(u)
    return (temp, setpoint, integral, phase), temps, duties


def test_params_validation():
    with pytest.raises(ContractError):
        ThermalParams(tau=0.0)
    with pytest.raises(ContractError):
        ThermalParams(t_melt=50.0, t_solid=55.0)
    with pytest.raises(ContractError):
        ThermalParams(u_max=0.0)


def test_initial_state_rigid_at_ambient():
    temp, setpoint, integral, phase = initial_state(PARAMS)
    assert temp == PARAMS.t_ambient
    assert setpoint == PARAMS.setpoint_rigid
    assert integral == 0.0
    assert phase == PHASE_RIGID == target_phase(False)
    assert phase != target_phase(True)


def test_command_retargets_setpoint():
    assert setpoint_for(True, PARAMS) == PARAMS.setpoint_soft
    assert setpoint_for(False, PARAMS) == PARAMS.setpoint_rigid
    custom = ThermalParams(setpoint_soft=70.0, setpoint_rigid=30.0)
    assert setpoint_for(True, custom) == 70.0
    assert setpoint_for(False, custom) == 30.0


def test_duty_is_clamped():
    # a step of dt = 0 reads the duty without moving the state
    cold = loop_step(0.0, 65.0, 0.0, PHASE_RIGID, PARAMS, 0.0)
    assert cold[0] == 0.0 and cold[3] == PARAMS.u_max
    hot = loop_step(90.0, 25.0, 0.0, PHASE_SOFT, PARAMS, 0.0)
    assert hot[0] == 90.0 and hot[3] == 0.0


def test_heating_reaches_soft_with_latency():
    t_melt = transition_time(PARAMS, to_soft=True)
    assert 2.0 < t_melt < 30.0
    t_solid = transition_time(PARAMS, to_soft=False)
    assert 0.5 < t_solid < 10.0
    # melting is the slow direction for this build
    assert t_melt > t_solid
    # the exact sums of 0.01 s steps for the default build
    assert t_melt == 8.079999999999872
    assert t_solid == 2.299999999999995


def test_latency_monotone_in_threshold_gap():
    # moving the melt threshold closer to ambient shortens the wait
    times = []
    for melt in (45.0, 55.0, 62.0):
        p = ThermalParams(t_melt=melt, t_solid=melt - 7.0)
        times.append(transition_time(p, to_soft=True))
    assert times[0] < times[1] < times[2]


def test_phase_hysteresis_band():
    def phase_after(temp, setpoint, phase):
        return loop_step(temp, setpoint, 0.0, phase, PARAMS, 0.01)[2]

    # inside the band, each phase is kept
    assert phase_after(58.0, 65.0, PHASE_RIGID) == PHASE_RIGID
    assert phase_after(58.0, 65.0, PHASE_SOFT) == PHASE_SOFT
    assert phase_after(63.0, 65.0, PHASE_RIGID) == PHASE_SOFT  # above melt
    assert phase_after(54.0, 25.0, PHASE_SOFT) == PHASE_RIGID  # below solidify


def test_no_overshoot_past_sensor_ceiling():
    _, temps, _ = run_loop(soft_start(PARAMS), PARAMS, 120.0)
    assert max(temps) < PARAMS.sensor_t_hi
    # settles near the soft setpoint
    assert abs(temps[-1] - PARAMS.setpoint_soft) < 1.0


def test_integrator_antiwindup():
    (temp, _, integral, phase), _, _ = run_loop(soft_start(PARAMS), PARAMS,
                                                200.0)
    assert 0.0 <= integral <= PARAMS.u_max / PARAMS.ki
    # cooling leg never drives the heater negative
    cooling = (temp, setpoint_for(False, PARAMS), integral, phase)
    (_, _, _, phase), _, duties = run_loop(cooling, PARAMS, 20.0)
    assert min(duties) >= 0.0
    assert phase == PHASE_RIGID


def test_transition_timeout():
    # a heater too weak to reach the melt band must raise at the 120 s
    # limit, not hang
    weak = ThermalParams(gain=10.0)
    with pytest.raises(ThermalTimeoutError, match="after 120 s") as info:
        transition_time(weak, to_soft=True)
    assert info.value.elapsed >= 120.0
    assert len(info.value.temperatures) == 1
    assert info.value.temperatures[0] < weak.t_melt
    # the cooling leg starts from a 60 s soft hold, which the same heater
    # never melts
    with pytest.raises(ThermalTimeoutError,
                       match="never reached the soft phase while settling"
                       ) as info:
        transition_time(weak, to_soft=False)
    assert info.value.elapsed == 60.0
    assert len(info.value.temperatures) == 1
    assert info.value.temperatures[0] < weak.t_melt
