import pytest

from softrig.errors import ContractError, ThermalTimeoutError
from softrig.thermal import (PHASE_RIGID, PHASE_SOFT, ThermalParams,
                             ThermalState, command, duty, initial_state,
                             is_ready, thermal_step, transition_time)

PARAMS = ThermalParams()


def run_loop(state, params, seconds, dt=0.01):
    temps = []
    for _ in range(int(round(seconds / dt))):
        state, _ = thermal_step(state, params, dt)
        temps.append(state.temperature)
    return state, temps


def test_params_validation():
    with pytest.raises(ContractError):
        ThermalParams(tau=0.0)
    with pytest.raises(ContractError):
        ThermalParams(t_melt=50.0, t_solid=55.0)
    with pytest.raises(ContractError):
        ThermalParams(u_max=0.0)


def test_initial_state_rigid_at_ambient():
    st = initial_state(PARAMS)
    assert st.temperature == PARAMS.t_ambient
    assert st.phase == PHASE_RIGID
    assert st.setpoint == PARAMS.setpoint_rigid
    assert is_ready(st, soft=False)
    assert not is_ready(st, soft=True)


def test_command_retargets_setpoint():
    st = command(initial_state(PARAMS), soft=True, params=PARAMS)
    assert st.setpoint == PARAMS.setpoint_soft
    st = command(st, soft=False, params=PARAMS)
    assert st.setpoint == PARAMS.setpoint_rigid


def test_duty_is_clamped():
    cold = ThermalState(temperature=0.0, setpoint=65.0)
    assert duty(cold, PARAMS) == PARAMS.u_max
    hot = ThermalState(temperature=90.0, setpoint=25.0)
    assert duty(hot, PARAMS) == 0.0


def test_heating_reaches_soft_with_latency():
    t_melt = transition_time(PARAMS, to_soft=True)
    assert 2.0 < t_melt < 30.0
    t_solid = transition_time(PARAMS, to_soft=False)
    assert 0.5 < t_solid < 10.0
    # melting is the slow direction for this build
    assert t_melt > t_solid


def test_latency_monotone_in_threshold_gap():
    # moving the melt threshold closer to ambient shortens the wait
    times = []
    for melt in (45.0, 55.0, 62.0):
        p = ThermalParams(t_melt=melt, t_solid=melt - 7.0)
        times.append(transition_time(p, to_soft=True))
    assert times[0] < times[1] < times[2]


def test_phase_hysteresis_band():
    st = ThermalState(temperature=58.0, setpoint=65.0, phase=PHASE_RIGID)
    st, _ = thermal_step(st, PARAMS, 0.01)
    assert st.phase == PHASE_RIGID  # inside the band, keeps its phase
    st = ThermalState(temperature=58.0, setpoint=65.0, phase=PHASE_SOFT)
    st, _ = thermal_step(st, PARAMS, 0.01)
    assert st.phase == PHASE_SOFT
    st = ThermalState(temperature=63.0, setpoint=65.0, phase=PHASE_RIGID)
    st, _ = thermal_step(st, PARAMS, 0.01)
    assert st.phase == PHASE_SOFT  # above melt
    st = ThermalState(temperature=54.0, setpoint=25.0, phase=PHASE_SOFT)
    st, _ = thermal_step(st, PARAMS, 0.01)
    assert st.phase == PHASE_RIGID  # below solidify


def test_no_overshoot_past_sensor_ceiling():
    st = command(initial_state(PARAMS), soft=True, params=PARAMS)
    st, temps = run_loop(st, PARAMS, 120.0)
    assert max(temps) < PARAMS.sensor_t_hi
    # settles near the soft setpoint
    assert abs(temps[-1] - PARAMS.setpoint_soft) < 1.0


def test_integrator_antiwindup():
    st = command(initial_state(PARAMS), soft=True, params=PARAMS)
    st, _ = run_loop(st, PARAMS, 200.0)
    assert 0.0 <= st.integral <= PARAMS.u_max / PARAMS.ki
    # cooling leg never drives the heater negative
    st = command(st, soft=False, params=PARAMS)
    for _ in range(2000):
        st, u = thermal_step(st, PARAMS, 0.01)
        assert u >= 0.0
    assert st.phase == PHASE_RIGID


def test_step_rejects_bad_dt():
    with pytest.raises(ContractError):
        thermal_step(initial_state(PARAMS), PARAMS, 0.0)


def test_transition_timeout():
    # a heater too weak to reach the melt band must raise, not hang
    weak = ThermalParams(gain=10.0)
    with pytest.raises(ThermalTimeoutError):
        transition_time(weak, to_soft=True, t_limit=20.0)
