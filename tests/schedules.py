"""The named parameter schedules the tests share.

- MICRO: the smallest level-1 schedule (n_prev = 1, n = 29).
- LOOSE: n_prev = 1 with room enough that restructured draws do not collide.
- WIDE2: n_prev = 2, so inner indices differ; every restructured draw
  collides.
- SMALL2: n_prev = 2 fills K sets on both sides, but d = 8 is too small for
  the restructured completion, whose fixed type-1 slots can reach 18.
- SPARSE3: n_prev = 3 with few collisions (about 1 restructured draw in 20).
- SPARSE2: n_prev = 2 with collisions rarer still (none in 40 draws).
- MIXED3 and MIXED4: n_prev = 3 and 4 where about 1 restructured draw in 3
  collides, so a collision check sees both answers.
- LEVEL2: a level-2 schedule whose seeded streams are pinned, so it stays
  as it is.  Its n_2 = 598821 was the least a since-removed auxiliary
  budget admitted; the room rule alone admits n_2 = 5250 at d = [2, 30].
  Both of its levels are too small for the restructured completion.
"""

from congestlab.params import ParamSchedule

MICRO = ParamSchedule(n=[1, 29], d=[6], alpha=[1], beta=[1], gamma=[1])
LOOSE = ParamSchedule(n=[1, 5000], d=[6], alpha=[1], beta=[1], gamma=[1])
WIDE2 = ParamSchedule(n=[2, 600], d=[20], alpha=[1], beta=[1], gamma=[1])
SMALL2 = ParamSchedule(n=[2, 2000], d=[8], alpha=[1], beta=[1], gamma=[1])
SPARSE3 = ParamSchedule(n=[3, 4_000_000], d=[40], alpha=[1], beta=[1],
                        gamma=[1])
SPARSE2 = ParamSchedule(n=[2, 1_000_000], d=[20], alpha=[1], beta=[1],
                        gamma=[1])
MIXED3 = ParamSchedule(n=[3, 1_000_000], d=[40], alpha=[1], beta=[1],
                       gamma=[1])
MIXED4 = ParamSchedule(n=[4, 4_000_000], d=[70], alpha=[1], beta=[1],
                       gamma=[1])
LEVEL2 = ParamSchedule(n=[1, 29, 598821], d=[2, 30], alpha=[1, 1],
                       beta=[1, 1], gamma=[1, 1])
