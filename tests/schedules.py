"""The named parameter schedules the tests share.

- MICRO: the smallest level-1 schedule (n_prev = 1, n = 29).
- LOOSE: n_prev = 1 with room enough that restructured draws do not collide.
- WIDE2: n_prev = 2, so inner indices differ; every restructured draw
  collides.
- SMALL2: n_prev = 2 fills K sets on both sides, but d = 8 is too small for
  the restructured completion, whose fixed type-1 slots can reach 18.
- SPARSE3: n_prev = 3 with few collisions (about 1 restructured draw in 20).
"""

from congestlab.params import ParamSchedule

MICRO = ParamSchedule(n=[1, 29], d=[6], alpha=[1], beta=[1], gamma=[1])
LOOSE = ParamSchedule(n=[1, 5000], d=[6], alpha=[1], beta=[1], gamma=[1])
WIDE2 = ParamSchedule(n=[2, 600], d=[20], alpha=[1], beta=[1], gamma=[1])
SMALL2 = ParamSchedule(n=[2, 2000], d=[8], alpha=[1], beta=[1], gamma=[1])
SPARSE3 = ParamSchedule(n=[3, 4_000_000], d=[40], alpha=[1], beta=[1],
                        gamma=[1])
