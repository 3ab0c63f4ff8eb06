"""The polmodes benchmark: workloads, checks, reference closed forms and spans."""
