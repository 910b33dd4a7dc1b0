-- tpch/Q3, registry seed 1: app_invocations=255
select lineitem.l_orderkey, sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) as revenue, orders.o_orderdate, orders.o_shippriority
from customer, orders, lineitem
where customer.c_custkey = orders.o_custkey and lineitem.l_orderkey = orders.o_orderkey and customer.c_mktsegment = 'BUILDING' and orders.o_orderdate <= date '1995-03-14' and lineitem.l_shipdate >= date '1995-03-16'
group by lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority
order by revenue desc, o_orderdate asc
limit 10;
