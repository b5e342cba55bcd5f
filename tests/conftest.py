from hypothesis import HealthCheck, settings

# database=None: no example database, so a stale local .hypothesis/ directory
# cannot replay old inputs; known failures are pinned with @example instead
settings.register_profile(
    "default",
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
