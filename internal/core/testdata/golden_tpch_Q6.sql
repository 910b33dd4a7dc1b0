-- tpch/Q6, registry seed 1: app_invocations=142
select sum(lineitem.l_discount * lineitem.l_extendedprice) as revenue
from lineitem
where lineitem.l_quantity <= 23.99 and lineitem.l_discount between 0.05 and 0.07 and lineitem.l_shipdate between date '1994-01-01' and date '1994-12-31';
